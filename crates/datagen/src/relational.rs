//! Minimal relational data model shared by the table generators, the SQL
//! engine in `bdb-stacks`, and the interactive-analytics workloads.

use std::fmt;

/// Type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// 64-bit signed integer.
    I64,
    /// 64-bit float.
    F64,
    /// UTF-8 string.
    Str,
}

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// 64-bit signed integer.
    I64(i64),
    /// 64-bit float.
    F64(f64),
    /// UTF-8 string.
    Str(String),
}

impl Field {
    /// The kind of this value.
    pub fn kind(&self) -> FieldKind {
        match self {
            Field::I64(_) => FieldKind::I64,
            Field::F64(_) => FieldKind::F64,
            Field::Str(_) => FieldKind::Str,
        }
    }

    /// Integer value, if this is an [`Field::I64`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Field::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Float value, if this is an [`Field::F64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Field::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// String value, if this is a [`Field::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Approximate encoded size in bytes (used for I/O accounting).
    pub fn byte_size(&self) -> usize {
        match self {
            Field::I64(_) | Field::F64(_) => 8,
            Field::Str(s) => s.len(),
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::I64(v) => write!(f, "{v}"),
            Field::F64(v) => write!(f, "{v:.4}"),
            Field::Str(v) => f.write_str(v),
        }
    }
}

/// A row is a vector of cells matching a [`Schema`].
pub type Row = Vec<Field>;

/// Column names and kinds of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, FieldKind)>,
}

impl Schema {
    /// Builds a schema from `(name, kind)` pairs.
    pub fn new<I, S>(columns: I) -> Self
    where
        I: IntoIterator<Item = (S, FieldKind)>,
        S: Into<String>,
    {
        Self {
            columns: columns.into_iter().map(|(n, k)| (n.into(), k)).collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Name of column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.arity()`.
    pub fn column_name(&self, i: usize) -> &str {
        &self.columns[i].0
    }

    /// Kind of column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.arity()`.
    pub fn column_kind(&self, i: usize) -> FieldKind {
        self.columns[i].1
    }

    /// Iterator over `(name, kind)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, FieldKind)> {
        self.columns.iter().map(|(n, k)| (n.as_str(), *k))
    }

    /// Checks that `row` matches this schema.
    pub fn validates(&self, row: &Row) -> bool {
        row.len() == self.arity()
            && row
                .iter()
                .zip(&self.columns)
                .all(|(f, (_, k))| f.kind() == *k)
    }
}

/// An in-memory table: a schema plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            rows: Vec::new(),
        }
    }

    /// Creates a table from rows, validating each against the schema.
    ///
    /// # Panics
    ///
    /// Panics if any row does not match the schema.
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Self {
        for (i, row) in rows.iter().enumerate() {
            assert!(schema.validates(row), "row {i} does not match schema");
        }
        Self { schema, rows }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows of the table.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row does not match the schema.
    pub fn push(&mut self, row: Row) {
        assert!(self.schema.validates(&row), "row does not match schema");
        self.rows.push(row);
    }

    /// Approximate encoded size in bytes.
    pub fn byte_size(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().map(Field::byte_size).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new([
            ("id", FieldKind::I64),
            ("name", FieldKind::Str),
            ("score", FieldKind::F64),
        ])
    }

    #[test]
    fn schema_lookup() {
        let s = schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.column_name(2), "score");
        assert_eq!(s.column_kind(0), FieldKind::I64);
    }

    #[test]
    fn validation_accepts_matching_rows() {
        let s = schema();
        assert!(s.validates(&vec![
            Field::I64(1),
            Field::Str("a".into()),
            Field::F64(0.5)
        ]));
        assert!(!s.validates(&vec![Field::I64(1), Field::I64(2), Field::F64(0.5)]));
        assert!(!s.validates(&vec![Field::I64(1)]));
    }

    #[test]
    #[should_panic(expected = "does not match schema")]
    fn push_rejects_bad_row() {
        let mut t = Table::new(schema());
        t.push(vec![Field::Str("oops".into())]);
    }

    #[test]
    fn byte_size_sums_fields() {
        let mut t = Table::new(schema());
        t.push(vec![
            Field::I64(1),
            Field::Str("abcd".into()),
            Field::F64(1.0),
        ]);
        assert_eq!(t.byte_size(), 8 + 4 + 8);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn field_accessors() {
        assert_eq!(Field::I64(3).as_i64(), Some(3));
        assert_eq!(Field::F64(2.5).as_f64(), Some(2.5));
        assert_eq!(Field::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Field::I64(3).as_str(), None);
        assert_eq!(Field::Str("x".into()).kind(), FieldKind::Str);
        assert_eq!(format!("{}", Field::I64(7)), "7");
    }
}
