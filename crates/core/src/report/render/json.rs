//! The JSON backend: a self-describing, parseable schema for typed
//! reports.
//!
//! The emitted document (`"schema": "psn-report/1"`) carries the full value
//! model — sections with scenario/view tags, run metadata, typed stats, and
//! blocks with column schemas — so downstream tooling (sweep analysis,
//! plotting, regression tracking) never re-parses our text output.
//!
//! The module also ships a parser ([`JsonRenderer::parse`]) that
//! reconstructs a [`ReportDoc`] exactly: floats are emitted in Rust's
//! shortest round-trip form, integers without a decimal point, so
//! `parse(render(doc)) == doc` (pinned by round-trip tests for all six
//! studies). Like the scenario config formats, the implementation is
//! self-contained because the build has no registry access.

use std::fmt::Write as _;

use crate::report::model::{
    Block, CellValue, Column, NumberFormat, ReportDoc, RunMeta, Scalar, Section, Series, Table,
    TableStyle,
};
use crate::report::render::{Artifact, Renderer};

/// Error raised while parsing a report JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportJsonError {
    message: String,
}

impl ReportJsonError {
    fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl std::fmt::Display for ReportJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "report json error: {}", self.message)
    }
}

impl std::error::Error for ReportJsonError {}

/// The JSON renderer/parser.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonRenderer;

impl JsonRenderer {
    /// Serialises a document to the `psn-report/1` JSON schema.
    pub fn render_json(&self, doc: &ReportDoc) -> String {
        let mut w = Writer::new();
        w.open_obj();
        w.key("schema");
        w.string("psn-report/1");
        w.key("study");
        w.string(&doc.study);
        w.key("sections");
        w.open_arr();
        for section in &doc.sections {
            w.item();
            write_section(&mut w, section);
        }
        w.close_arr();
        w.close_obj();
        w.finish()
    }

    /// Parses a `psn-report/1` document back into a [`ReportDoc`].
    pub fn parse(&self, text: &str) -> Result<ReportDoc, ReportJsonError> {
        let value = parse::parse(text)?;
        let obj = value.as_obj("document")?;
        let schema = obj.get_str("schema")?;
        if schema != "psn-report/1" {
            return Err(ReportJsonError::new(format!("unsupported schema {schema:?}")));
        }
        let mut doc = ReportDoc::new(obj.get_str("study")?);
        for section in obj.get_arr("sections")? {
            doc.sections.push(read_section(section)?);
        }
        Ok(doc)
    }
}

impl Renderer for JsonRenderer {
    fn format_name(&self) -> &'static str {
        "json"
    }

    fn render(&self, doc: &ReportDoc) -> Vec<Artifact> {
        vec![Artifact { filename: "report.json".to_string(), contents: self.render_json(doc) }]
    }
}

// ----- emission -------------------------------------------------------------

/// Formats a float in shortest round-trip form; integral values keep a
/// trailing `.0` so the parser can tell float cells from integer cells.
fn fmt_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "report values must be finite");
    format!("{v:?}")
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            // RFC 8259 requires escaping every other control character
            // too; strict parsers (python's json, the CI smoke step)
            // reject them raw.
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            other => out.push(other),
        }
    }
    out
}

/// A small pretty-printing JSON writer: objects and arrays indent by two
/// spaces; `compact` regions (rows, points) stay on one line.
struct Writer {
    out: String,
    indent: usize,
    needs_comma: Vec<bool>,
    compact: usize,
}

impl Writer {
    fn new() -> Self {
        Self { out: String::new(), indent: 0, needs_comma: vec![false], compact: 0 }
    }

    fn newline(&mut self) {
        if self.compact == 0 {
            self.out.push('\n');
            for _ in 0..self.indent {
                self.out.push_str("  ");
            }
        }
    }

    fn separate(&mut self) {
        if *self.needs_comma.last().unwrap_or_else(|| unreachable!("writer scope")) {
            self.out.push(',');
            if self.compact > 0 {
                self.out.push(' ');
            }
        }
        *self.needs_comma.last_mut().unwrap_or_else(|| unreachable!("writer scope")) = true;
        self.newline();
    }

    /// Starts the next array item.
    fn item(&mut self) {
        self.separate();
    }

    fn key(&mut self, key: &str) {
        self.separate();
        let _ = write!(self.out, "\"{}\": ", escape(key));
    }

    fn open_obj(&mut self) {
        self.out.push('{');
        self.indent += 1;
        self.needs_comma.push(false);
    }

    fn close_obj(&mut self) {
        self.indent -= 1;
        let had_items = self.needs_comma.pop().unwrap_or_else(|| unreachable!("writer scope"));
        if had_items {
            self.newline();
        }
        self.out.push('}');
    }

    fn open_arr(&mut self) {
        self.out.push('[');
        self.indent += 1;
        self.needs_comma.push(false);
    }

    fn close_arr(&mut self) {
        self.indent -= 1;
        let had_items = self.needs_comma.pop().unwrap_or_else(|| unreachable!("writer scope"));
        if had_items {
            self.newline();
        }
        self.out.push(']');
    }

    fn begin_compact(&mut self) {
        self.compact += 1;
    }

    fn end_compact(&mut self) {
        self.compact -= 1;
    }

    fn string(&mut self, s: &str) {
        let _ = write!(self.out, "\"{}\"", escape(s));
    }

    fn raw(&mut self, s: &str) {
        self.out.push_str(s);
    }

    fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

fn write_format(w: &mut Writer, format: NumberFormat) {
    match format {
        NumberFormat::Fixed(decimals) => w.raw(&decimals.to_string()),
        NumberFormat::Display => w.string("display"),
    }
}

fn write_column(w: &mut Writer, column: &Column) {
    w.begin_compact();
    w.open_obj();
    w.key("name");
    w.string(&column.name);
    w.key("unit");
    match &column.unit {
        Some(unit) => w.string(unit),
        None => w.raw("null"),
    }
    w.key("format");
    write_format(w, column.format);
    w.close_obj();
    w.end_compact();
}

fn write_scalar(w: &mut Writer, scalar: &Scalar) {
    w.begin_compact();
    w.open_obj();
    w.key("name");
    w.string(&scalar.name);
    w.key("value");
    w.raw(&fmt_f64(scalar.value));
    w.key("unit");
    match &scalar.unit {
        Some(unit) => w.string(unit),
        None => w.raw("null"),
    }
    w.key("format");
    write_format(w, scalar.format);
    w.close_obj();
    w.end_compact();
}

fn write_table(w: &mut Writer, table: &Table) {
    w.key("name");
    w.string(&table.name);
    w.key("style");
    w.string(match table.style {
        TableStyle::Csv => "csv",
        TableStyle::BoxPlotLines => "boxplot",
    });
    w.key("columns");
    w.open_arr();
    for column in &table.columns {
        w.item();
        write_column(w, column);
    }
    w.close_arr();
    w.key("rows");
    w.open_arr();
    for row in &table.rows {
        w.item();
        w.begin_compact();
        w.open_arr();
        for cell in row {
            w.item();
            match cell {
                CellValue::Float(v) => w.raw(&fmt_f64(*v)),
                CellValue::Int(v) => w.raw(&v.to_string()),
                CellValue::Text(t) => w.string(t),
                CellValue::Missing => w.raw("null"),
            }
        }
        w.close_arr();
        w.end_compact();
    }
    w.close_arr();
}

fn write_series(w: &mut Writer, series: &Series) {
    w.key("name");
    w.string(&series.name);
    w.key("samples");
    match series.samples {
        Some(n) => w.raw(&n.to_string()),
        None => w.raw("null"),
    }
    w.key("x");
    write_column(w, &series.x);
    w.key("y");
    write_column(w, &series.y);
    w.key("points");
    w.open_arr();
    for &(x, y) in &series.points {
        w.item();
        w.begin_compact();
        w.open_arr();
        w.item();
        w.raw(&fmt_f64(x));
        w.item();
        w.raw(&fmt_f64(y));
        w.close_arr();
        w.end_compact();
    }
    w.close_arr();
}

fn write_section(w: &mut Writer, section: &Section) {
    w.open_obj();
    w.key("scenario");
    w.string(&section.scenario);
    w.key("view");
    w.string(&section.view);
    w.key("run");
    match &section.run {
        None => w.raw("null"),
        Some(run) => {
            w.begin_compact();
            w.open_obj();
            w.key("scenario_kind");
            w.string(&run.scenario_kind);
            w.key("seed");
            w.raw(&run.seed.to_string());
            w.key("nodes");
            w.raw(&run.nodes.to_string());
            w.key("window_seconds");
            w.raw(&fmt_f64(run.window_seconds));
            w.close_obj();
            w.end_compact();
        }
    }
    w.key("stats");
    w.open_arr();
    for stat in &section.stats {
        w.item();
        write_scalar(w, stat);
    }
    w.close_arr();
    w.key("blocks");
    w.open_arr();
    for block in &section.blocks {
        w.item();
        w.open_obj();
        w.key("kind");
        match block {
            Block::Title(text) => {
                w.string("title");
                w.key("text");
                w.string(text);
            }
            Block::Heading(text) => {
                w.string("heading");
                w.key("text");
                w.string(text);
            }
            Block::Note(text) => {
                w.string("note");
                w.key("text");
                w.string(text);
            }
            Block::Scalar(scalar) => {
                w.string("scalar");
                w.key("scalar");
                write_scalar(w, scalar);
            }
            Block::Table(table) => {
                w.string("table");
                write_table(w, table);
            }
            Block::Series(series) => {
                w.string("series");
                write_series(w, series);
            }
        }
        w.close_obj();
    }
    w.close_arr();
    w.close_obj();
}

// ----- parsing --------------------------------------------------------------

mod parse {
    use super::ReportJsonError;

    /// A parsed JSON value. Integer-looking number tokens (no `.`/`e`) stay
    /// integers so typed cells round-trip exactly.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Int(u64),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn as_obj(&self, what: &str) -> Result<ObjView<'_>, ReportJsonError> {
            match self {
                Json::Obj(fields) => Ok(ObjView(fields)),
                other => {
                    Err(ReportJsonError::new(format!("{what}: expected object, got {other:?}")))
                }
            }
        }

        pub fn as_f64(&self, what: &str) -> Result<f64, ReportJsonError> {
            match self {
                Json::Num(v) => Ok(*v),
                Json::Int(v) => Ok(*v as f64),
                other => {
                    Err(ReportJsonError::new(format!("{what}: expected number, got {other:?}")))
                }
            }
        }

        pub fn as_u64(&self, what: &str) -> Result<u64, ReportJsonError> {
            match self {
                Json::Int(v) => Ok(*v),
                other => {
                    Err(ReportJsonError::new(format!("{what}: expected integer, got {other:?}")))
                }
            }
        }

        pub fn as_str(&self, what: &str) -> Result<&str, ReportJsonError> {
            match self {
                Json::Str(s) => Ok(s),
                other => {
                    Err(ReportJsonError::new(format!("{what}: expected string, got {other:?}")))
                }
            }
        }

        pub fn as_arr(&self, what: &str) -> Result<&[Json], ReportJsonError> {
            match self {
                Json::Arr(items) => Ok(items),
                other => {
                    Err(ReportJsonError::new(format!("{what}: expected array, got {other:?}")))
                }
            }
        }
    }

    /// A field-accessor view over an object value.
    #[derive(Clone, Copy)]
    pub struct ObjView<'a>(&'a [(String, Json)]);

    impl<'a> ObjView<'a> {
        pub fn get(&self, key: &str) -> Result<&'a Json, ReportJsonError> {
            self.0
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| ReportJsonError::new(format!("missing field {key:?}")))
        }

        pub fn get_str(&self, key: &str) -> Result<&'a str, ReportJsonError> {
            self.get(key)?.as_str(key)
        }

        pub fn get_arr(&self, key: &str) -> Result<&'a [Json], ReportJsonError> {
            self.get(key)?.as_arr(key)
        }
    }

    struct Parser<'a> {
        chars: std::iter::Peekable<std::str::CharIndices<'a>>,
        text: &'a str,
    }

    impl<'a> Parser<'a> {
        fn error(&mut self, message: &str) -> ReportJsonError {
            let at = self.chars.peek().map(|&(i, _)| i).unwrap_or(self.text.len());
            ReportJsonError::new(format!("offset {at}: {message}"))
        }

        fn skip_ws(&mut self) {
            while matches!(self.chars.peek(), Some(&(_, c)) if c.is_whitespace()) {
                self.chars.next();
            }
        }

        fn peek(&mut self) -> Option<char> {
            self.skip_ws();
            self.chars.peek().map(|&(_, c)| c)
        }

        fn expect(&mut self, want: char) -> Result<(), ReportJsonError> {
            self.skip_ws();
            match self.chars.next() {
                Some((_, c)) if c == want => Ok(()),
                _ => Err(self.error(&format!("expected {want:?}"))),
            }
        }

        fn parse_string(&mut self) -> Result<String, ReportJsonError> {
            self.expect('"')?;
            let mut out = String::new();
            loop {
                match self.chars.next() {
                    Some((_, '"')) => return Ok(out),
                    Some((_, '\\')) => match self.chars.next() {
                        Some((_, '"')) => out.push('"'),
                        Some((_, '\\')) => out.push('\\'),
                        Some((_, 'n')) => out.push('\n'),
                        Some((_, 't')) => out.push('\t'),
                        Some((_, 'r')) => out.push('\r'),
                        Some((_, '/')) => out.push('/'),
                        Some((_, 'u')) => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let digit = self
                                    .chars
                                    .next()
                                    .and_then(|(_, c)| c.to_digit(16))
                                    .ok_or_else(|| ReportJsonError::new("invalid \\u escape"))?;
                                code = code * 16 + digit;
                            }
                            // Surrogate pairs are not produced by our
                            // emitter (it only escapes control chars);
                            // reject them rather than mis-decode.
                            let c = char::from_u32(code).ok_or_else(|| {
                                ReportJsonError::new("unsupported \\u surrogate escape")
                            })?;
                            out.push(c);
                        }
                        _ => return Err(self.error("unsupported string escape")),
                    },
                    Some((_, c)) => out.push(c),
                    None => return Err(self.error("unterminated string")),
                }
            }
        }

        fn parse_number(&mut self) -> Result<Json, ReportJsonError> {
            self.skip_ws();
            let start = match self.chars.peek() {
                Some(&(i, _)) => i,
                None => return Err(self.error("expected a number")),
            };
            let mut end = start;
            while let Some(&(i, c)) = self.chars.peek() {
                if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                    end = i + c.len_utf8();
                    self.chars.next();
                } else {
                    break;
                }
            }
            let token = &self.text[start..end];
            if !token.contains(['.', 'e', 'E']) {
                if let Ok(v) = token.parse::<u64>() {
                    return Ok(Json::Int(v));
                }
            }
            token
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|_| ReportJsonError::new(format!("invalid number {token:?}")))
        }

        fn parse_value(&mut self) -> Result<Json, ReportJsonError> {
            match self.peek() {
                Some('{') => {
                    self.expect('{')?;
                    let mut fields = Vec::new();
                    if self.peek() == Some('}') {
                        self.chars.next();
                        return Ok(Json::Obj(fields));
                    }
                    loop {
                        self.skip_ws();
                        let key = self.parse_string()?;
                        self.expect(':')?;
                        let value = self.parse_value()?;
                        fields.push((key, value));
                        match self.peek() {
                            Some(',') => {
                                self.chars.next();
                            }
                            Some('}') => {
                                self.chars.next();
                                return Ok(Json::Obj(fields));
                            }
                            _ => return Err(self.error("expected ',' or '}'")),
                        }
                    }
                }
                Some('[') => {
                    self.expect('[')?;
                    let mut items = Vec::new();
                    if self.peek() == Some(']') {
                        self.chars.next();
                        return Ok(Json::Arr(items));
                    }
                    loop {
                        items.push(self.parse_value()?);
                        match self.peek() {
                            Some(',') => {
                                self.chars.next();
                            }
                            Some(']') => {
                                self.chars.next();
                                return Ok(Json::Arr(items));
                            }
                            _ => return Err(self.error("expected ',' or ']'")),
                        }
                    }
                }
                Some('"') => Ok(Json::Str(self.parse_string()?)),
                Some('n') => {
                    for want in ['n', 'u', 'l', 'l'] {
                        match self.chars.next() {
                            Some((_, c)) if c == want => {}
                            _ => return Err(self.error("expected null")),
                        }
                    }
                    Ok(Json::Null)
                }
                _ => self.parse_number(),
            }
        }
    }

    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<Json, ReportJsonError> {
        let mut parser = Parser { chars: text.char_indices().peekable(), text };
        let value = parser.parse_value()?;
        parser.skip_ws();
        if parser.chars.next().is_some() {
            return Err(ReportJsonError::new("trailing content after the document"));
        }
        Ok(value)
    }
}

use parse::Json;

fn read_format(value: &Json) -> Result<NumberFormat, ReportJsonError> {
    match value {
        Json::Int(decimals) => Ok(NumberFormat::Fixed(*decimals as usize)),
        Json::Str(s) if s == "display" => Ok(NumberFormat::Display),
        other => Err(ReportJsonError::new(format!("invalid number format {other:?}"))),
    }
}

fn read_opt_string(value: &Json, what: &str) -> Result<Option<String>, ReportJsonError> {
    match value {
        Json::Null => Ok(None),
        Json::Str(s) => Ok(Some(s.clone())),
        other => {
            Err(ReportJsonError::new(format!("{what}: expected string or null, got {other:?}")))
        }
    }
}

fn read_column(value: &Json) -> Result<Column, ReportJsonError> {
    let obj = value.as_obj("column")?;
    Ok(Column {
        name: obj.get_str("name")?.to_string(),
        unit: read_opt_string(obj.get("unit")?, "unit")?,
        format: read_format(obj.get("format")?)?,
    })
}

fn read_scalar(value: &Json) -> Result<Scalar, ReportJsonError> {
    let obj = value.as_obj("scalar")?;
    Ok(Scalar {
        name: obj.get_str("name")?.to_string(),
        value: obj.get("value")?.as_f64("value")?,
        unit: read_opt_string(obj.get("unit")?, "unit")?,
        format: read_format(obj.get("format")?)?,
    })
}

fn read_cell(value: &Json) -> Result<CellValue, ReportJsonError> {
    Ok(match value {
        Json::Null => CellValue::Missing,
        Json::Int(v) => CellValue::Int(*v),
        Json::Num(v) => CellValue::Float(*v),
        Json::Str(s) => CellValue::Text(s.clone()),
        other => return Err(ReportJsonError::new(format!("invalid cell {other:?}"))),
    })
}

fn read_block(value: &Json) -> Result<Block, ReportJsonError> {
    let obj = value.as_obj("block")?;
    let kind = obj.get_str("kind")?;
    Ok(match kind {
        "title" => Block::Title(obj.get_str("text")?.to_string()),
        "heading" => Block::Heading(obj.get_str("text")?.to_string()),
        "note" => Block::Note(obj.get_str("text")?.to_string()),
        "scalar" => Block::Scalar(read_scalar(obj.get("scalar")?)?),
        "table" => {
            let style = match obj.get_str("style")? {
                "csv" => TableStyle::Csv,
                "boxplot" => TableStyle::BoxPlotLines,
                other => {
                    return Err(ReportJsonError::new(format!("unknown table style {other:?}")))
                }
            };
            let columns =
                obj.get_arr("columns")?.iter().map(read_column).collect::<Result<Vec<_>, _>>()?;
            let mut table = Table::new(obj.get_str("name")?, columns).with_style(style);
            for row in obj.get_arr("rows")? {
                let cells =
                    row.as_arr("row")?.iter().map(read_cell).collect::<Result<Vec<_>, _>>()?;
                if cells.len() != table.columns.len() {
                    return Err(ReportJsonError::new(format!(
                        "table {:?}: row width {} does not match {} columns",
                        table.name,
                        cells.len(),
                        table.columns.len()
                    )));
                }
                table.push_row(cells);
            }
            Block::Table(table)
        }
        "series" => {
            let samples = match obj.get("samples")? {
                Json::Null => None,
                other => Some(other.as_u64("samples")? as usize),
            };
            let points = obj
                .get_arr("points")?
                .iter()
                .map(|p| {
                    let pair = p.as_arr("point")?;
                    if pair.len() != 2 {
                        return Err(ReportJsonError::new("points must be [x, y] pairs"));
                    }
                    Ok((pair[0].as_f64("x")?, pair[1].as_f64("y")?))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let mut series = Series::new(
                obj.get_str("name")?,
                read_column(obj.get("x")?)?,
                read_column(obj.get("y")?)?,
                points,
            );
            series.samples = samples;
            Block::Series(series)
        }
        other => return Err(ReportJsonError::new(format!("unknown block kind {other:?}"))),
    })
}

fn read_section(value: &Json) -> Result<Section, ReportJsonError> {
    let obj = value.as_obj("section")?;
    let run = match obj.get("run")? {
        Json::Null => None,
        run => {
            let run = run.as_obj("run")?;
            Some(RunMeta {
                scenario_kind: run.get_str("scenario_kind")?.to_string(),
                seed: run.get("seed")?.as_u64("seed")?,
                nodes: run.get("nodes")?.as_u64("nodes")? as usize,
                window_seconds: run.get("window_seconds")?.as_f64("window_seconds")?,
            })
        }
    };
    Ok(Section {
        scenario: obj.get_str("scenario")?.to_string(),
        view: obj.get_str("view")?.to_string(),
        run,
        stats: obj.get_arr("stats")?.iter().map(read_scalar).collect::<Result<Vec<_>, _>>()?,
        blocks: obj.get_arr("blocks")?.iter().map(read_block).collect::<Result<Vec<_>, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn sample_doc() -> ReportDoc {
        let mut table = Table::new(
            "delay_vs_success",
            vec![
                Column::text("algorithm"),
                Column::fixed("success_rate", 3),
                Column::fixed("average_delay_s", 1).with_unit("s"),
            ],
        );
        table.push_row(vec![
            CellValue::Text("Epidemic".into()),
            CellValue::Float(0.75),
            CellValue::Float(120.5),
        ]);
        table.push_row(vec![
            CellValue::Text("say \"hi\"\n".into()),
            CellValue::Float(-0.25),
            CellValue::Missing,
        ]);
        let series = Series {
            name: "delay (s)".into(),
            samples: Some(42),
            x: Column::fixed("value", 3),
            y: Column::fixed("probability", 4),
            points: vec![(0.0, 0.25), (1.5, 1.0)],
        };
        let mut boxes = Table::new(
            "ratios",
            vec![
                Column::text("hop_pair"),
                Column::int("n"),
                Column::fixed("min", 3),
                Column::fixed("q1", 3),
                Column::fixed("med", 3),
                Column::fixed("q3", 3),
                Column::fixed("max", 3),
                Column::fixed("whisker_low", 3),
                Column::fixed("whisker_high", 3),
                Column::int("outliers"),
            ],
        )
        .with_style(TableStyle::BoxPlotLines);
        boxes.push_row(vec![
            CellValue::Text("1/0".into()),
            CellValue::Int(12),
            CellValue::Float(0.5),
            CellValue::Float(1.0),
            CellValue::Float(1.5),
            CellValue::Float(2.0),
            CellValue::Float(4.0),
            CellValue::Float(0.5),
            CellValue::Float(4.0),
            CellValue::Int(0),
        ]);
        ReportDoc {
            study: "forwarding".into(),
            sections: vec![
                Section {
                    scenario: "Infocom06 9-12".into(),
                    view: "delay-vs-success".into(),
                    run: Some(RunMeta {
                        scenario_kind: "conference".into(),
                        seed: 42,
                        nodes: 98,
                        window_seconds: 10800.0,
                    }),
                    stats: vec![Scalar::fixed("cv", 0.5, 3).with_unit("ratio")],
                    blocks: vec![
                        Block::Title("Figure 9 — example".into()),
                        Block::Table(table),
                        Block::Scalar(Scalar::fixed("spread", 0.125, 3)),
                        Block::Heading("Epidemic".into()),
                        Block::Series(series),
                        Block::Note("done".into()),
                        Block::Table(boxes),
                    ],
                },
                Section::new().block(Block::Note("scenario-less".into())),
            ],
        }
    }

    #[test]
    fn documents_round_trip_exactly() {
        let doc = sample_doc();
        let json = JsonRenderer.render_json(&doc);
        let parsed = JsonRenderer.parse(&json).expect("rendered json parses");
        assert_eq!(parsed, doc, "json:\n{json}");
    }

    #[test]
    fn schema_and_kind_errors_are_reported() {
        assert!(JsonRenderer.parse("{}").is_err());
        assert!(JsonRenderer
            .parse("{\"schema\": \"other\", \"study\": \"x\", \"sections\": []}")
            .unwrap_err()
            .to_string()
            .contains("unsupported schema"));
        assert!(JsonRenderer.parse("not json").is_err());
        let json = JsonRenderer.render_json(&sample_doc());
        assert!(JsonRenderer.parse(&format!("{json} trailing")).is_err());
    }

    #[test]
    fn control_characters_are_escaped_and_round_trip() {
        let doc = ReportDoc {
            study: "s".into(),
            sections: vec![Section {
                scenario: "ctrl\u{0B}chars\u{1F}\nhere".into(),
                ..Section::new()
            }],
        };
        let json = JsonRenderer.render_json(&doc);
        // No raw control characters may survive inside the document
        // (RFC 8259); the newline escapes as \n, the rest as \u00XX.
        assert!(json.contains("\\u000b") && json.contains("\\u001f"), "{json}");
        assert!(!json.contains('\u{0B}'), "{json:?}");
        assert_eq!(JsonRenderer.parse(&json).unwrap(), doc);
    }

    #[test]
    fn float_and_integer_cells_stay_distinct() {
        let mut table = Table::new("t", vec![Column::display("a"), Column::int("b")]);
        table.push_row(vec![CellValue::Float(3.0), CellValue::Int(3)]);
        let doc = ReportDoc {
            study: "s".into(),
            sections: vec![Section::new().block(Block::Table(table))],
        };
        let parsed = JsonRenderer.parse(&JsonRenderer.render_json(&doc)).unwrap();
        assert_eq!(parsed, doc);
    }
}
