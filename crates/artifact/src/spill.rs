//! The slab slot spill for the streaming space-time graph.
//!
//! The bounded-window [`psn_spacetime::WindowedSpaceTimeGraph`] keeps only a
//! sliding window of sealed slots hot and pushes cold slots through a
//! [`psn_spacetime::SlotSpill`]. [`SlabSlotSpill`] is the production sink:
//! every slot record is appended to a **single slab file** through a
//! reusable encode scratch buffer and read back positionally through the
//! same buffer. A record is a raw fixed-layout header
//! (`slot u64 | edge count u32 | checksum u64`) followed by the edge pairs
//! (`a u32 | b u32`), all little-endian — no per-record file metadata, no
//! allocation on the store path, one seek+write per store and one
//! seek+read per load. The checksum covers the slot, the edge count and
//! every pair; it is folded while a record is encoded or decoded, never in
//! a second pass over the bytes.
//!
//! Only the normalized edge list is persisted — adjacency, components and
//! member lists are rebuilt deterministically by `Slot::seal` on reload, so
//! a reloaded slot is bit-identical to the one that was spilled. A record
//! whose header or checksum does not match is **quarantined** (its index
//! entry is dropped) and surfaces as [`SpillError::Corrupt`]: the caller's
//! retry then sees a clean miss and can rebuild by re-streaming instead of
//! tripping over the same bad bytes. The sink carries the
//! `spill.store-slot` / `spill.load-slot` failpoints (see
//! `psn_fault::sites`), which the chaos suite uses to pin exactly that
//! quarantine-and-rebuild path.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use psn_spacetime::{SlotSpill, SpillError};
use psn_trace::NodeId;

/// Distinguishes concurrently created slab files within one process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Byte length of a slab record header: `slot u64 | edge count u32 |
/// checksum u64`. The edge pairs follow at 8 bytes each.
const SLAB_HEADER: usize = 20;
/// Where the checksum sits in the record header.
const CHECKSUM_AT: std::ops::Range<usize> = 12..20;
/// The running checksum's start value (the 64-bit FNV offset basis).
const CHECKSUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one 64-bit word into a record checksum. Each step (rotate, xor
/// with the word, multiply by an odd constant) is a bijection of the
/// running value, so a record that differs from the stored one in a single
/// word always fails the check.
fn fold(sum: u64, word: u64) -> u64 {
    (sum.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The checksum of a record header, before its edge pairs are folded in.
fn header_checksum(slot: u64, count: u32) -> u64 {
    fold(fold(CHECKSUM_SEED, slot), u64::from(count))
}

#[derive(Debug)]
struct SlabState {
    file: File,
    /// Offset and byte length of the live record of each stored slot.
    index: BTreeMap<usize, (u64, u32)>,
    /// End-of-slab append offset.
    end: u64,
    /// Reusable encode/decode buffer — stores and loads both go through it,
    /// so the steady-state spill path allocates nothing.
    scratch: Vec<u8>,
}

/// The [`SlotSpill`] sink: one append-only slab file, raw fixed-layout
/// checksummed records, reusable scratch buffers.
///
/// Stores append the record and remember `(offset, length)` in an in-memory
/// index; loads seek and read exactly the record back. Re-storing a slot
/// appends a fresh record and repoints the index (the dead record is
/// reclaimed when the slab is dropped with the graph). The record header
/// and checksum are verified on load; a mismatch drops the index entry —
/// quarantining the record as a miss so a rebuild can re-store cleanly —
/// and reports [`SpillError::Corrupt`].
#[derive(Debug)]
pub struct SlabSlotSpill {
    state: Mutex<SlabState>,
    path: PathBuf,
    cleanup: bool,
}

impl SlabSlotSpill {
    /// Creates (truncating) a slab at `path`; the file is left in place on
    /// drop.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, SpillError> {
        let path = path.into();
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| SpillError::Io(format!("creating slab {}: {e}", path.display())))?;
        Ok(Self {
            state: Mutex::new(SlabState {
                file,
                index: BTreeMap::new(),
                end: 0,
                scratch: Vec::new(),
            }),
            path,
            cleanup: false,
        })
    }

    /// Creates a slab in a fresh process-unique temp file, removed when the
    /// spill is dropped.
    pub fn in_temp_file() -> Result<Self, SpillError> {
        // relaxed: unique-id sequence; only uniqueness matters, not ordering.
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("psn-slab-{}-{seq}.psnspill", std::process::id()));
        let mut spill = Self::create(path)?;
        spill.cleanup = true;
        Ok(spill)
    }

    /// The slab file path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SlabState> {
        self.state.lock().unwrap_or_else(|poison| poison.into_inner())
    }
}

impl SlotSpill for SlabSlotSpill {
    fn store(&self, index: usize, edges: &[(NodeId, NodeId)]) -> Result<(), SpillError> {
        let mut guard = self.lock();
        let st = &mut *guard;
        let count = edges.len() as u32;
        st.scratch.clear();
        st.scratch.extend_from_slice(&(index as u64).to_le_bytes());
        st.scratch.extend_from_slice(&count.to_le_bytes());
        st.scratch.extend_from_slice(&[0; 8]); // the checksum, once known
        let mut sum = header_checksum(index as u64, count);
        for &(a, b) in edges {
            let pair = u64::from(a.0) | (u64::from(b.0) << 32);
            st.scratch.extend_from_slice(&pair.to_le_bytes());
            sum = fold(sum, pair);
        }
        st.scratch[CHECKSUM_AT].copy_from_slice(&sum.to_le_bytes());
        if psn_fault::enabled() {
            psn_fault::inject_io(psn_fault::sites::SPILL_STORE_SLOT, &mut st.scratch)
                .map_err(|e| SpillError::Io(format!("appending slot {index} to slab: {e}")))?;
        }
        let io = |e: std::io::Error| SpillError::Io(format!("appending slot {index} to slab: {e}"));
        st.file.seek(SeekFrom::Start(st.end)).map_err(io)?;
        st.file.write_all(&st.scratch).map_err(io)?;
        let len = st.scratch.len() as u32;
        st.index.insert(index, (st.end, len));
        st.end += u64::from(len);
        Ok(())
    }

    fn load(&self, index: usize) -> Result<Vec<(NodeId, NodeId)>, SpillError> {
        let mut guard = self.lock();
        let st = &mut *guard;
        let Some(&(offset, len)) = st.index.get(&index) else {
            return Err(SpillError::Missing(index));
        };
        let io = |e: std::io::Error| SpillError::Io(format!("reading slot {index} from slab: {e}"));
        st.file.seek(SeekFrom::Start(offset)).map_err(io)?;
        st.scratch.resize(len as usize, 0);
        let (file, scratch) = (&mut st.file, &mut st.scratch);
        file.read_exact(&mut scratch[..len as usize]).map_err(io)?;
        if psn_fault::enabled() {
            psn_fault::inject_io(psn_fault::sites::SPILL_LOAD_SLOT, scratch).map_err(io)?;
        }
        let corrupt = |what: &str| {
            // Quarantine: drop the index entry so a retry sees a clean miss
            // it can rebuild over, instead of the same bad bytes.
            SpillError::Corrupt(format!("slab record for slot {index}: {what}"))
        };
        let bytes = &st.scratch;
        if bytes.len() < SLAB_HEADER {
            st.index.remove(&index);
            return Err(corrupt("truncated header"));
        }
        let stored_slot = u64::from_le_bytes(
            bytes[0..8].try_into().unwrap_or_else(|_| unreachable!("length checked above")),
        );
        let count = u32::from_le_bytes(
            bytes[8..12].try_into().unwrap_or_else(|_| unreachable!("length checked above")),
        );
        let stored_sum = u64::from_le_bytes(
            bytes[CHECKSUM_AT].try_into().unwrap_or_else(|_| unreachable!("length checked above")),
        );
        if stored_slot != index as u64 || bytes.len() != SLAB_HEADER + count as usize * 8 {
            st.index.remove(&index);
            return Err(corrupt("header mismatch"));
        }
        let mut sum = header_checksum(stored_slot, count);
        let mut edges = Vec::with_capacity(count as usize);
        for chunk in bytes[SLAB_HEADER..].chunks_exact(8) {
            let pair = u64::from_le_bytes(
                chunk.try_into().unwrap_or_else(|_| unreachable!("chunks are 8 bytes")),
            );
            sum = fold(sum, pair);
            edges.push((NodeId(pair as u32), NodeId((pair >> 32) as u32)));
        }
        if sum != stored_sum {
            st.index.remove(&index);
            return Err(corrupt("checksum mismatch"));
        }
        Ok(edges)
    }

    fn scratch_bytes(&self) -> usize {
        self.lock().scratch.capacity()
    }
}

impl Drop for SlabSlotSpill {
    fn drop(&mut self) {
        if self.cleanup {
            // Best effort: a leftover temp file is harmless.
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn corrupt_slot_files_fail_closed_and_are_quarantined() {
        // A flipped payload byte leaves the header intact and still names
        // a valid node, so only the record checksum can catch it.
        let spill = SlabSlotSpill::in_temp_file().unwrap();
        let edges = vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(4))];
        spill.store(0, &edges).unwrap();
        let mut file = File::options().read(true).write(true).open(spill.path()).unwrap();
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).unwrap();
        let at = bytes.len() - 8; // the low byte of the last pair's first node
        file.seek(SeekFrom::Start(at as u64)).unwrap();
        file.write_all(&[bytes[at] ^ 0x01]).unwrap();
        let err = spill.load(0).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt(_)), "{err:?}");
        // The record was quarantined: a retry sees a clean miss, and a
        // re-store rebuilds the slot.
        assert_eq!(spill.load(0).unwrap_err(), SpillError::Missing(0));
        spill.store(0, &edges).unwrap();
        assert_eq!(spill.load(0).unwrap(), edges);
    }

    #[test]
    fn caller_provided_slab_files_are_kept() {
        let path = std::env::temp_dir().join(format!("psn-slab-keep-test-{}", std::process::id()));
        {
            let spill = SlabSlotSpill::create(&path).unwrap();
            spill.store(1, &[(NodeId(0), NodeId(1))]).unwrap();
            assert_eq!(spill.load(1).unwrap(), vec![(NodeId(0), NodeId(1))]);
        }
        let len = std::fs::metadata(&path).map(|m| m.len());
        let _ = std::fs::remove_file(&path);
        assert_eq!(len.unwrap(), (SLAB_HEADER + 8) as u64, "explicit slab file survives drop");
    }

    #[test]
    fn slab_round_trips_and_reports_misses() {
        let spill = SlabSlotSpill::in_temp_file().unwrap();
        let path = spill.path().to_path_buf();
        let edges = vec![(NodeId(5), NodeId(9)), (NodeId(0), NodeId(3)), (NodeId(2), NodeId(2))];
        spill.store(11, &edges).unwrap();
        spill.store(0, &[]).unwrap();
        assert_eq!(spill.load(11).unwrap(), edges);
        assert_eq!(spill.load(0).unwrap(), vec![]);
        assert_eq!(spill.load(12).unwrap_err(), SpillError::Missing(12));
        // Re-storing repoints the index to the fresh record.
        spill.store(11, &[(NodeId(1), NodeId(2))]).unwrap();
        assert_eq!(spill.load(11).unwrap(), vec![(NodeId(1), NodeId(2))]);
        assert!(spill.scratch_bytes() > 0, "scratch buffer is retained between calls");
        drop(spill);
        assert!(!path.exists(), "temp slab is removed on drop");
    }

    #[test]
    fn slab_spill_failpoints_quarantine_and_rebuild() {
        // The spill.store-slot / spill.load-slot chaos contract: a corrupt
        // record fails closed, is quarantined (subsequent load = clean
        // miss), and a rebuild (re-store) fully heals the slot.
        let spill = SlabSlotSpill::in_temp_file().unwrap();
        let edges = vec![(NodeId(4), NodeId(7)), (NodeId(1), NodeId(6))];
        {
            let _guard = psn_fault::arm_guard("spill.store-slot:corrupt-bytes:1");
            spill.store(2, &edges).unwrap(); // corrupted on the way down
        }
        let err = spill.load(2).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt(_)), "{err:?}");
        assert_eq!(spill.load(2).unwrap_err(), SpillError::Missing(2), "record is quarantined");
        spill.store(2, &edges).unwrap();
        assert_eq!(spill.load(2).unwrap(), edges, "rebuild heals the slot");

        {
            let _guard = psn_fault::arm_guard("spill.load-slot:corrupt-bytes:1");
            assert!(matches!(spill.load(2).unwrap_err(), SpillError::Corrupt(_)));
        }
        assert_eq!(spill.load(2).unwrap_err(), SpillError::Missing(2));
        spill.store(2, &edges).unwrap();
        assert_eq!(spill.load(2).unwrap(), edges);

        {
            let _guard = psn_fault::arm_guard("spill.store-slot:io-error:1");
            assert!(matches!(spill.store(3, &edges).unwrap_err(), SpillError::Io(_)));
        }
        {
            let _guard = psn_fault::arm_guard("spill.load-slot:io-error:1");
            assert!(matches!(spill.load(2).unwrap_err(), SpillError::Io(_)));
        }
        assert_eq!(spill.load(2).unwrap(), edges, "io faults are transient, nothing quarantined");
    }

    #[test]
    fn drives_a_windowed_graph_end_to_end() {
        use psn_spacetime::{SpaceTimeGraph, WindowedSpaceTimeGraph};
        use psn_trace::contact::Contact;
        use psn_trace::node::{NodeClass, NodeRegistry};
        use psn_trace::trace::{ContactTrace, TimeWindow};
        use psn_trace::TraceEventStream;

        let mut reg = NodeRegistry::new();
        for _ in 0..5 {
            reg.add(NodeClass::Mobile);
        }
        let contacts = vec![
            Contact::new(NodeId(0), NodeId(1), 1.0, 15.0).unwrap(),
            Contact::new(NodeId(1), NodeId(2), 22.0, 28.0).unwrap(),
            Contact::new(NodeId(3), NodeId(4), 55.0, 95.0).unwrap(),
            Contact::new(NodeId(0), NodeId(4), 91.0, 99.0).unwrap(),
        ];
        let trace =
            ContactTrace::from_contacts("spill-e2e", reg, TimeWindow::new(0.0, 120.0), contacts)
                .unwrap();
        let reference = SpaceTimeGraph::build_default(&trace);
        // The slab answers every slot query bit-identically to the
        // materialized reference after spill round-trips.
        let spill = Box::new(SlabSlotSpill::in_temp_file().unwrap());
        let windowed =
            WindowedSpaceTimeGraph::stream(&mut TraceEventStream::new(&trace, 10.0), 1, spill)
                .unwrap();
        for s in (0..reference.slot_count()).rev() {
            let slot = windowed.slot(s);
            assert_eq!(slot.edges(), reference.slot(s).edges(), "slot {s}");
            assert_eq!(slot.active_nodes(), reference.slot(s).active_nodes(), "slot {s}");
        }
        assert!(windowed.spill_loads() > 0, "window of 1 forces reloads");
    }
}
