//! Typed values and tuples — the unit of data everywhere in the system.
//!
//! DeepDive stores all data (documents, sentences, mentions, candidates,
//! features, labels, marginal probabilities) in relational tables; a [`Value`]
//! is one cell of one tuple. Text payloads are reference-counted so tuples
//! clone cheaply during joins and grounding.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueType {
    /// Nullable marker type; any column may hold `Null` regardless of type.
    Null,
    /// Accepts any value — used by synthetic relations (e.g. grounding
    /// scratch tables) whose column types are not statically known.
    Any,
    Bool,
    Int,
    Float,
    Text,
    /// Opaque identifier (document ids, mention ids, variable ids...).
    Id,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Null => "null",
            ValueType::Any => "any",
            ValueType::Bool => "bool",
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Text => "text",
            ValueType::Id => "id",
        };
        f.write_str(s)
    }
}

/// A single relational value.
///
/// `Float` wraps an `f64` but provides total ordering and hashing (NaNs
/// compare equal to each other and sort last), so values can key hash joins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(Arc<str>),
    Id(u64),
}

impl Value {
    /// Construct a text value from anything string-like.
    pub fn text(s: impl AsRef<str>) -> Self {
        Value::Text(Arc::from(s.as_ref()))
    }

    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Null => ValueType::Null,
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Text(_) => ValueType::Text,
            Value::Id(_) => ValueType::Id,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(t) => Some(t),
            _ => None,
        }
    }

    pub fn as_id(&self) -> Option<u64> {
        match self {
            Value::Id(i) => Some(*i),
            _ => None,
        }
    }

    /// True when this value can be stored in a column of type `ty`.
    pub fn conforms_to(&self, ty: ValueType) -> bool {
        ty == ValueType::Any || self.is_null() || self.value_type() == ty
    }

    fn discriminant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Text(_) => 4,
            Value::Id(_) => 5,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => total_f64_cmp(*a, *b),
            // Cross numeric comparison: compare as floats so `x > 3` works
            // whether the column is int or float.
            (Int(a), Float(b)) => total_f64_cmp(*a as f64, *b),
            (Float(a), Int(b)) => total_f64_cmp(*a, *b as f64),
            (Text(a), Text(b)) => a.cmp(b),
            (Id(a), Id(b)) => a.cmp(b),
            (a, b) => a.discriminant_rank().cmp(&b.discriminant_rank()),
        }
    }
}

pub(crate) fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    // Normalize so -0.0 == 0.0 and all NaNs compare equal (and last),
    // matching the Hash implementation.
    let norm = |x: f64| {
        if x.is_nan() {
            f64::NAN
        } else if x == 0.0 {
            0.0
        } else {
            x
        }
    };
    norm(a).total_cmp(&norm(b))
}

/// Comparison operators over [`Value`]s — usable in rule bodies and as
/// typed scan predicates (filter pushdown, serve-side relation filters).
///
/// Semantics are exactly [`Value`]'s total order, so a vectorized kernel,
/// an index probe and a per-row `eval` can never disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        self.matches(a.cmp(b))
    }

    /// The operator with its operands swapped: `a op b ⇔ b op.flipped() a`.
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq | CmpOp::Ne => self,
        }
    }

    /// Whether an [`Ordering`] (of `left.cmp(right)`) satisfies the operator.
    pub fn matches(self, ord: Ordering) -> bool {
        use Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and floats that compare equal must hash equal because
            // `Ord` compares them numerically across types.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                if f.is_nan() {
                    f64::NAN.to_bits().hash(state);
                } else if *f == 0.0 {
                    0.0f64.to_bits().hash(state);
                } else {
                    f.to_bits().hash(state);
                }
            }
            Value::Text(t) => {
                4u8.hash(state);
                t.hash(state);
            }
            Value::Id(i) => {
                5u8.hash(state);
                i.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(t) => write!(f, "{t}"),
            Value::Id(i) => write!(f, "#{i}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::text(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(Arc::from(s.as_str()))
    }
}
impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Self {
        Value::Text(s)
    }
}

/// A row: fixed-width sequence of values matching some [`crate::Schema`].
pub type Row = Box<[Value]>;

/// The one row-hash used everywhere: hash a sequence of values exactly as a
/// [`Row`] hashes (slice semantics — length prefix, then each element).
///
/// Table slot maps and anything else keyed on row content must call this
/// helper so row hashing can never diverge between phases.
/// Uses the crate's fixed-seed hasher ([`crate::fxhash::FxHasher`]) — no
/// random state, so the hash is stable across runs and processes, and cheap
/// enough for the per-mutation slot lookups that dominate derived-tuple
/// apply loops.
pub fn hash_values(vals: &[Value]) -> u64 {
    let mut h = crate::fxhash::FxHasher::default();
    vals.hash(&mut h);
    h.finish()
}

/// Build a row from an iterator of values.
pub fn row<I, V>(values: I) -> Row
where
    I: IntoIterator<Item = V>,
    V: Into<Value>,
{
    values.into_iter().map(Into::into).collect()
}

/// Convenience macro for building rows of mixed-type values.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        vec![$($crate::Value::from($v)),*].into_boxed_slice()
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_numeric_equality_and_hash_agree() {
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nan_is_self_equal_and_sorts_last_among_floats() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, Value::Float(f64::NAN));
        assert!(Value::Float(1e308) < nan);
    }

    #[test]
    fn negative_zero_equals_positive_zero_and_hashes_equal() {
        let a = Value::Float(0.0);
        let b = Value::Float(-0.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn text_values_clone_cheaply_and_compare() {
        let a = Value::text("hello");
        let b = a.clone();
        assert_eq!(a, b);
        assert!(Value::text("a") < Value::text("b"));
    }

    #[test]
    fn cross_type_ordering_is_total_and_stable() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::text(""),
            Value::Id(0),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn conforms_accepts_null_anywhere() {
        assert!(Value::Null.conforms_to(ValueType::Int));
        assert!(Value::Int(1).conforms_to(ValueType::Int));
        assert!(!Value::Int(1).conforms_to(ValueType::Text));
    }

    #[test]
    fn row_macro_builds_mixed_rows() {
        let r: Row = row![1i64, "x", 2.5, true];
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], Value::Int(1));
        assert_eq!(r[1], Value::text("x"));
    }

    #[test]
    fn display_round_trips_readably() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Id(7).to_string(), "#7");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn as_float_coerces_ints() {
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert_eq!(Value::text("2").as_float(), None);
    }
}
