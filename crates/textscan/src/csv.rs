//! CSV parsing with metadata inference.

use std::sync::Arc;
use tabviz_common::{
    Cell, Chunk, ColumnBuilder, DataType, Field, Result, Schema, SchemaRef, TvError,
};
use tabviz_tql::datefn;

/// Whether the first record holds column names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeaderMode {
    /// Detect: a first row whose cells are all non-numeric strings while the
    /// second row contains at least one non-string value is taken as header.
    #[default]
    Auto,
    Yes,
    No,
}

/// Parser configuration.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    pub delimiter: char,
    pub header: HeaderMode,
    /// Cell texts treated as NULL (besides the empty string).
    pub null_tokens: Vec<String>,
    /// Explicit schema (the "schema file"); skips inference entirely.
    pub schema: Option<SchemaRef>,
    /// Rows sampled for type inference.
    pub infer_rows: usize,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            header: HeaderMode::Auto,
            null_tokens: vec!["NULL".into(), "NA".into()],
            schema: None,
            infer_rows: 1000,
        }
    }
}

/// One record's fields, unescaped into a buffer the scanner reuses.
#[derive(Default)]
struct Record {
    text: String,
    /// End offset in `text` of each field.
    ends: Vec<usize>,
}

impl Record {
    /// Field `i`; `""` past the end of a short (ragged) record.
    fn field(&self, i: usize) -> &str {
        match self.ends.get(i) {
            None => "",
            Some(&end) => &self.text[if i == 0 { 0 } else { self.ends[i - 1] }..end],
        }
    }

    fn fields(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len()).map(|i| self.field(i))
    }

    /// Close the current field; at the end of a line, hand the record to
    /// `on_record` unless it is blank (one empty field) and start the next.
    fn end_field(&mut self, end_line: bool, on_record: &mut impl FnMut(&Record)) {
        self.ends.push(self.text.len());
        if end_line {
            if self.ends.len() > 1 || !self.text.is_empty() {
                on_record(self);
            }
            self.text.clear();
            self.ends.clear();
        }
    }
}

/// Split raw text into records of fields, honoring quotes, and hand each
/// non-blank record to `on_record` in order. CR is dropped outside quotes.
fn scan_records(text: &str, delimiter: char, mut on_record: impl FnMut(&Record)) -> Result<()> {
    let mut rec = Record::default();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    rec.text.push('"');
                }
                '"' => in_quotes = false,
                _ => rec.text.push(c),
            }
            continue;
        }
        match c {
            // A quote opens quoting only at the start of a field.
            '"' if rec.text.len() == rec.ends.last().map_or(0, |&e| e) => in_quotes = true,
            '"' => rec.text.push('"'),
            c if c == delimiter => rec.end_field(false, &mut on_record),
            '\r' => {}
            '\n' => rec.end_field(true, &mut on_record),
            _ => rec.text.push(c),
        }
    }
    if in_quotes {
        return Err(TvError::Parse("unterminated quoted field".into()));
    }
    if !rec.text.is_empty() || !rec.ends.is_empty() {
        rec.end_field(true, &mut on_record);
    }
    Ok(())
}

/// Try to interpret a cell as the narrowest matching type.
fn sniff(cell: &str) -> DataType {
    let t = cell.trim();
    if t.parse::<i64>().is_ok() {
        return DataType::Int;
    }
    if t.parse::<f64>().is_ok() {
        return DataType::Real;
    }
    if parse_date(t).is_some() {
        return DataType::Date;
    }
    if t.eq_ignore_ascii_case("true") || t.eq_ignore_ascii_case("false") {
        return DataType::Bool;
    }
    DataType::Str
}

/// `YYYY-MM-DD` (or `/`-separated) dates that exist in the calendar.
fn parse_date(t: &str) -> Option<i32> {
    let sep = if t.contains('-') { '-' } else { '/' };
    let mut parts = t.split(sep).map(|p| p.parse::<i32>().ok());
    let (y, m, d) = (parts.next()??, parts.next()??, parts.next()??);
    if parts.next().is_some() || !(1..=12).contains(&m) || !(1000..=9999).contains(&y) {
        return None;
    }
    // Reject days the month lacks (2015-02-30) instead of rolling over.
    let (m, d) = (m as u32, u32::try_from(d).ok()?);
    let days = datefn::days_from_civil(y, m, d);
    (datefn::civil_from_days(days) == (y, m, d)).then_some(days)
}

/// Widen `a` to also accommodate `b`.
fn unify(a: DataType, b: DataType) -> DataType {
    use DataType::*;
    match (a, b) {
        (x, y) if x == y => x,
        (Int, Real) | (Real, Int) => Real,
        _ => Str,
    }
}

fn is_null(cell: &str, opts: &CsvOptions) -> bool {
    let t = cell.trim();
    t.is_empty() || opts.null_tokens.iter().any(|n| n.eq_ignore_ascii_case(t))
}

/// Fold one record's sniffed cell types (`None` for a null cell) into the
/// per-column types inferred so far.
fn unify_into(types: &mut Vec<Option<DataType>>, cells: &[Option<DataType>]) {
    if types.len() < cells.len() {
        types.resize(cells.len(), None);
    }
    for (slot, cell) in types.iter_mut().zip(cells) {
        if let Some(t) = *cell {
            *slot = Some(slot.map_or(t, |prev| unify(prev, t)));
        }
    }
}

/// Parse CSV text into a chunk, inferring names and types unless an explicit
/// schema is supplied. Two passes over the text, no row is staged: the first
/// finds the width, the record count, the header and the types; the second
/// appends every cell to its column's builder.
pub fn parse_csv(text: &str, opts: &CsvOptions) -> Result<Chunk> {
    let infer = opts.schema.is_none();
    let mut records = 0usize;
    let mut width = 0usize;
    let mut first: Vec<String> = Vec::new();
    let (mut first_all_str, mut second_typed) = (false, false);
    // Types over the sample without a header (records 0..infer_rows) and
    // with one (records 1..=infer_rows); the header decision picks one.
    let (mut types_from0, mut types_from1) = (Vec::new(), Vec::new());
    scan_records(text, opts.delimiter, |rec| {
        let n = records;
        records += 1;
        width = width.max(rec.ends.len());
        if n > 1 && !(infer && n <= opts.infer_rows) {
            return;
        }
        let cells: Vec<Option<DataType>> = rec
            .fields()
            .map(|c| (!is_null(c, opts)).then(|| sniff(c)))
            .collect();
        if n == 0 {
            first = rec.fields().map(str::to_string).collect();
            first_all_str = cells.iter().all(|&t| t == Some(DataType::Str));
        } else if n == 1 {
            second_typed = cells.iter().any(|&t| t.is_some_and(|t| t != DataType::Str));
        }
        if infer && n < opts.infer_rows {
            unify_into(&mut types_from0, &cells);
        }
        if infer && n >= 1 && n <= opts.infer_rows {
            unify_into(&mut types_from1, &cells);
        }
    })?;
    if records == 0 {
        return Ok(Chunk::empty(
            opts.schema
                .clone()
                .unwrap_or_else(|| Arc::new(Schema::empty())),
        ));
    }

    let has_header = match opts.header {
        HeaderMode::Yes => true,
        HeaderMode::No => false,
        HeaderMode::Auto => first_all_str && second_typed,
    };

    let schema: SchemaRef = match &opts.schema {
        Some(s) => {
            if s.len() != width {
                return Err(TvError::Schema(format!(
                    "schema has {} columns but file has {width}",
                    s.len()
                )));
            }
            Arc::clone(s)
        }
        None => {
            let mut types = if has_header { types_from1 } else { types_from0 };
            types.resize(width, None);
            // Column names: header cells or F1..Fn.
            let fields: Vec<Field> = types
                .into_iter()
                .enumerate()
                .map(|(i, t)| {
                    let name = first
                        .get(i)
                        .filter(|s| has_header && !s.trim().is_empty())
                        .map(|s| s.trim().to_string())
                        .unwrap_or_else(|| format!("F{}", i + 1));
                    Field::new(name, t.unwrap_or(DataType::Str))
                })
                .collect();
            Arc::new(Schema::new(fields)?)
        }
    };

    let rows = records - usize::from(has_header);
    let mut columns: Vec<ColumnBuilder> = schema
        .fields()
        .iter()
        .map(|f| ColumnBuilder::new(f.dtype, rows))
        .collect();
    let mut skip_header = has_header;
    scan_records(text, opts.delimiter, |rec| {
        if std::mem::take(&mut skip_header) {
            return;
        }
        for (i, col) in columns.iter_mut().enumerate() {
            parse_cell(rec.field(i), col, opts);
        }
    })?;
    Chunk::new(
        schema,
        columns.into_iter().map(ColumnBuilder::finish).collect(),
    )
}

/// Append one cell to its column. A cell that does not parse as the column's
/// type (a row outside the inference sample) becomes NULL.
fn parse_cell(cell: &str, col: &mut ColumnBuilder, opts: &CsvOptions) {
    let t = cell.trim();
    let value = if is_null(cell, opts) {
        Cell::Null
    } else {
        match col.data_type() {
            DataType::Int => t.parse().map_or(Cell::Null, Cell::Int),
            DataType::Real => t.parse().map_or(Cell::Null, Cell::Real),
            DataType::Date => parse_date(t).map_or(Cell::Null, Cell::Date),
            DataType::Bool if t.eq_ignore_ascii_case("true") => Cell::Bool(true),
            DataType::Bool if t.eq_ignore_ascii_case("false") => Cell::Bool(false),
            DataType::Bool => Cell::Null,
            DataType::Str => Cell::Str(cell),
        }
    };
    col.push(value)
        .expect("a cell parsed as its column's type always fits it");
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_common::Value;

    #[test]
    fn infers_header_and_types() {
        let text = "carrier,delay,date,ok\nAA,12,2015-05-31,true\nDL,,2015-06-01,false\n";
        let c = parse_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(c.schema().names(), vec!["carrier", "delay", "date", "ok"]);
        assert_eq!(c.schema().field(1).dtype, DataType::Int);
        assert_eq!(c.schema().field(2).dtype, DataType::Date);
        assert_eq!(c.schema().field(3).dtype, DataType::Bool);
        assert_eq!(c.len(), 2);
        assert_eq!(c.row(1)[1], Value::Null);
    }

    #[test]
    fn no_header_generates_names() {
        let text = "1,2.5\n3,4.0\n";
        let c = parse_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(c.schema().names(), vec!["F1", "F2"]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.schema().field(0).dtype, DataType::Int);
        assert_eq!(c.schema().field(1).dtype, DataType::Real);
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let text = "name,notes\n\"O'Hare, Chicago\",\"said \"\"hi\"\"\"\n\"multi\nline\",x\n";
        let opts = CsvOptions {
            header: HeaderMode::Yes,
            ..Default::default()
        };
        let c = parse_csv(text, &opts).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.row(0)[0], Value::Str("O'Hare, Chicago".into()));
        assert_eq!(c.row(0)[1], Value::Str("said \"hi\"".into()));
        assert_eq!(c.row(1)[0], Value::Str("multi\nline".into()));
    }

    #[test]
    fn int_widens_to_real_then_str() {
        let text = "x\n1\n2.5\n";
        let c = parse_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(c.schema().field(0).dtype, DataType::Real);
        let text2 = "x\n1\nabc\n";
        let c2 = parse_csv(text2, &CsvOptions::default()).unwrap();
        assert_eq!(c2.schema().field(0).dtype, DataType::Str);
    }

    #[test]
    fn explicit_schema_skips_inference() {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("a", DataType::Str),
                Field::new("b", DataType::Str),
            ])
            .unwrap(),
        );
        let text = "a,b\n1,2\n";
        let opts = CsvOptions {
            schema: Some(schema),
            header: HeaderMode::Yes,
            ..Default::default()
        };
        let c = parse_csv(text, &opts).unwrap();
        assert_eq!(c.row(0)[0], Value::Str("1".into()));
        // Arity mismatch rejected.
        let bad = CsvOptions {
            schema: Some(Arc::new(
                Schema::new(vec![Field::new("a", DataType::Str)]).unwrap(),
            )),
            ..Default::default()
        };
        assert!(parse_csv(text, &bad).is_err());
    }

    #[test]
    fn custom_delimiter_and_nulls() {
        let text = "a|b\n1|NA\n2|x\n";
        let opts = CsvOptions {
            delimiter: '|',
            ..Default::default()
        };
        let c = parse_csv(text, &opts).unwrap();
        assert_eq!(c.row(0)[1], Value::Null);
        assert_eq!(c.row(1)[1], Value::Str("x".into()));
    }

    #[test]
    fn crlf_and_blank_lines() {
        let text = "a,b\r\n1,2\r\n\r\n3,4\r\n";
        let c = parse_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.row(1)[0], Value::Int(3));
    }

    #[test]
    fn ragged_rows_pad_with_null() {
        let text = "a,b,c\n1,2,3\n4,5\n";
        let c = parse_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(c.row(1)[2], Value::Null);
    }

    #[test]
    fn empty_and_malformed() {
        assert_eq!(parse_csv("", &CsvOptions::default()).unwrap().len(), 0);
        assert!(parse_csv("a\n\"unterminated", &CsvOptions::default()).is_err());
    }

    #[test]
    fn impossible_dates_are_rejected() {
        assert_eq!(parse_date("2015-02-30"), None);
        assert_eq!(parse_date("2015-04-31"), None);
        assert_eq!(
            parse_date("2016-02-29"),
            Some(datefn::days_from_civil(2016, 2, 29))
        );
        // In the inference sample such a cell sniffs as a string...
        let text = "d\n2015-01-31\n2015-02-30\n";
        let c = parse_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(c.schema().field(0).dtype, DataType::Str);
        // ...and outside it, it is NULL like any cell that does not parse.
        let opts = CsvOptions {
            infer_rows: 1,
            ..Default::default()
        };
        let c = parse_csv(text, &opts).unwrap();
        assert_eq!(c.schema().field(0).dtype, DataType::Date);
        assert_eq!(c.row(1)[0], Value::Null);
    }

    #[test]
    fn header_auto_negative_case() {
        // All-string rows everywhere: first row is data, not a header.
        let text = "AA,JFK\nDL,LAX\n";
        let c = parse_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.schema().names(), vec!["F1", "F2"]);
    }
}
