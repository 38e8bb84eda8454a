//! Attributes, categories and access requests.
//!
//! DRAMS monitors an XACML-style access control system (paper §I: "The FaaS
//! access control system is based on the eXtensible Access Control Markup
//! Language (XACML)"). Requests carry four categories of attributes —
//! subject, resource, action and environment — each a bag-valued map.

use drams_crypto::codec::{decode_seq, Decode, Encode, Reader, Writer};
use drams_crypto::CryptoError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// XACML attribute category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Category {
    /// The requesting subject (user, service).
    Subject,
    /// The protected resource.
    Resource,
    /// The action being attempted.
    Action,
    /// Environmental context (time, location, tenant).
    Environment,
}

impl Category {
    /// All four categories in canonical order.
    pub const ALL: [Category; 4] = [
        Category::Subject,
        Category::Resource,
        Category::Action,
        Category::Environment,
    ];

    /// Canonical lowercase name.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Category::Subject => "subject",
            Category::Resource => "resource",
            Category::Action => "action",
            Category::Environment => "environment",
        }
    }

    /// Parses a category name.
    ///
    /// # Errors
    ///
    /// Returns an error message for unknown names.
    pub fn parse(s: &str) -> Result<Category, String> {
        match s {
            "subject" => Ok(Category::Subject),
            "resource" => Ok(Category::Resource),
            "action" => Ok(Category::Action),
            "environment" => Ok(Category::Environment),
            other => Err(format!("unknown attribute category `{other}`")),
        }
    }

    fn code(self) -> u8 {
        match self {
            Category::Subject => 0,
            Category::Resource => 1,
            Category::Action => 2,
            Category::Environment => 3,
        }
    }

    fn from_code(code: u8) -> Result<Category, CryptoError> {
        match code {
            0 => Ok(Category::Subject),
            1 => Ok(Category::Resource),
            2 => Ok(Category::Action),
            3 => Ok(Category::Environment),
            other => Err(CryptoError::Malformed(format!("category code {other}"))),
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A fully-qualified attribute identifier, e.g. `subject.role`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttributeId {
    /// The category the attribute belongs to.
    pub category: Category,
    /// The attribute name within the category.
    pub name: String,
}

impl AttributeId {
    /// Creates an attribute id.
    pub fn new(category: Category, name: impl Into<String>) -> Self {
        AttributeId {
            category,
            name: name.into(),
        }
    }

    /// Parses `category.name` notation.
    ///
    /// # Errors
    ///
    /// Returns an error message when the format or category is invalid.
    pub fn parse(s: &str) -> Result<AttributeId, String> {
        let (cat, name) = s
            .split_once('.')
            .ok_or_else(|| format!("attribute id `{s}` must be `category.name`"))?;
        if name.is_empty() {
            return Err(format!("attribute id `{s}` has empty name"));
        }
        Ok(AttributeId::new(Category::parse(cat)?, name))
    }
}

impl fmt::Display for AttributeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.category, self.name)
    }
}

/// A typed attribute value.
///
/// `Double` is kept separate from `Int`; cross-type numeric comparison
/// coerces `Int` to `Double` (mirroring FACPL's numeric handling).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AttributeValue {
    /// UTF-8 string.
    Str(String),
    /// 64-bit signed integer.
    Int(i64),
    /// IEEE-754 double.
    Double(f64),
    /// Boolean.
    Bool(bool),
}

impl AttributeValue {
    /// A human-readable name for the value's type.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            AttributeValue::Str(_) => "string",
            AttributeValue::Int(_) => "int",
            AttributeValue::Double(_) => "double",
            AttributeValue::Bool(_) => "bool",
        }
    }

    /// Numeric view (Int coerced to Double); `None` for non-numerics.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttributeValue::Int(i) => Some(*i as f64),
            AttributeValue::Double(d) => Some(*d),
            _ => None,
        }
    }
}

impl PartialEq for AttributeValue {
    fn eq(&self, other: &Self) -> bool {
        use AttributeValue::*;
        match (self, other) {
            (Str(a), Str(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Double(a), Double(b)) => a == b,
            (Int(a), Double(b)) | (Double(b), Int(a)) => (*a as f64) == *b,
            _ => false,
        }
    }
}

impl fmt::Display for AttributeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttributeValue::Str(s) => write!(f, "\"{s}\""),
            AttributeValue::Int(i) => write!(f, "{i}"),
            AttributeValue::Double(d) => write!(f, "{d}"),
            AttributeValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for AttributeValue {
    fn from(s: &str) -> Self {
        AttributeValue::Str(s.to_string())
    }
}

impl From<String> for AttributeValue {
    fn from(s: String) -> Self {
        AttributeValue::Str(s)
    }
}

impl From<i64> for AttributeValue {
    fn from(i: i64) -> Self {
        AttributeValue::Int(i)
    }
}

impl From<f64> for AttributeValue {
    fn from(d: f64) -> Self {
        AttributeValue::Double(d)
    }
}

impl From<bool> for AttributeValue {
    fn from(b: bool) -> Self {
        AttributeValue::Bool(b)
    }
}

/// An access request: for each attribute id, a *bag* of values.
///
/// Uses `BTreeMap` so iteration (and thus canonical encoding and hashing)
/// is deterministic — the monitor contract compares request digests across
/// probes, which requires byte-identical encodings.
///
/// The map is shared copy-on-write: cloning a request — as the PEP does
/// to keep an in-flight copy for retransmission, and as every envelope
/// clone does — costs a reference count, and [`Request::add`] copies the
/// map only when another clone still shares it. A request is a value all
/// the same: a change to one clone is never seen by another.
///
/// # Example
///
/// ```
/// use drams_policy::attr::{Request, Category};
///
/// let req = Request::builder()
///     .subject("role", "doctor")
///     .resource("type", "patient-record")
///     .action("id", "read")
///     .environment("hour", 14i64)
///     .build();
/// assert_eq!(req.bag(Category::Subject, "role").len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Request {
    attributes: Arc<BTreeMap<AttributeId, Vec<AttributeValue>>>,
}

impl Request {
    /// Creates an empty request.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts building a request fluently.
    #[must_use]
    pub fn builder() -> RequestBuilder {
        RequestBuilder {
            request: Request::new(),
        }
    }

    /// Adds a value to the bag for (category, name).
    pub fn add(
        &mut self,
        category: Category,
        name: impl Into<String>,
        value: impl Into<AttributeValue>,
    ) {
        Arc::make_mut(&mut self.attributes)
            .entry(AttributeId::new(category, name))
            .or_default()
            .push(value.into());
    }

    /// The value bag for (category, name); empty slice when absent.
    #[must_use]
    pub fn bag(&self, category: Category, name: &str) -> &[AttributeValue] {
        self.attributes
            .get(&AttributeId::new(category, name))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The value bag for an [`AttributeId`]; empty slice when absent.
    #[must_use]
    pub fn bag_by_id(&self, id: &AttributeId) -> &[AttributeValue] {
        self.attributes.get(id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over `(id, bag)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttributeId, &[AttributeValue])> {
        self.attributes.iter().map(|(id, bag)| (id, bag.as_slice()))
    }

    /// Number of distinct attribute ids.
    #[must_use]
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// True when no attributes are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }
}

/// Fluent builder for [`Request`].
#[derive(Debug, Default)]
pub struct RequestBuilder {
    request: Request,
}

impl RequestBuilder {
    /// Adds a subject attribute.
    #[must_use]
    pub fn subject(mut self, name: &str, value: impl Into<AttributeValue>) -> Self {
        self.request.add(Category::Subject, name, value);
        self
    }

    /// Adds a resource attribute.
    #[must_use]
    pub fn resource(mut self, name: &str, value: impl Into<AttributeValue>) -> Self {
        self.request.add(Category::Resource, name, value);
        self
    }

    /// Adds an action attribute.
    #[must_use]
    pub fn action(mut self, name: &str, value: impl Into<AttributeValue>) -> Self {
        self.request.add(Category::Action, name, value);
        self
    }

    /// Adds an environment attribute.
    #[must_use]
    pub fn environment(mut self, name: &str, value: impl Into<AttributeValue>) -> Self {
        self.request.add(Category::Environment, name, value);
        self
    }

    /// Adds an attribute under an explicit category.
    #[must_use]
    pub fn attribute(
        mut self,
        category: Category,
        name: &str,
        value: impl Into<AttributeValue>,
    ) -> Self {
        self.request.add(category, name, value);
        self
    }

    /// Finishes building.
    #[must_use]
    pub fn build(self) -> Request {
        self.request
    }
}

// ---- canonical encoding ----------------------------------------------------

impl Encode for AttributeValue {
    fn encode(&self, w: &mut Writer) {
        match self {
            AttributeValue::Str(s) => {
                w.put_u8(0);
                w.put_str(s);
            }
            AttributeValue::Int(i) => {
                w.put_u8(1);
                w.put_i64(*i);
            }
            AttributeValue::Double(d) => {
                w.put_u8(2);
                w.put_f64(*d);
            }
            AttributeValue::Bool(b) => {
                w.put_u8(3);
                w.put_bool(*b);
            }
        }
    }
}

impl Decode for AttributeValue {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        match r.get_u8()? {
            0 => Ok(AttributeValue::Str(r.get_str()?)),
            1 => Ok(AttributeValue::Int(r.get_i64()?)),
            2 => Ok(AttributeValue::Double(r.get_f64()?)),
            3 => Ok(AttributeValue::Bool(r.get_bool()?)),
            other => Err(CryptoError::Malformed(format!("value tag {other}"))),
        }
    }
}

impl Encode for AttributeId {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.category.code());
        w.put_str(&self.name);
    }
}

impl Decode for AttributeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let category = Category::from_code(r.get_u8()?)?;
        let name = r.get_str()?;
        Ok(AttributeId { category, name })
    }
}

impl Encode for Request {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.attributes.len() as u64);
        for (id, bag) in self.attributes.iter() {
            id.encode(w);
            w.put_varint(bag.len() as u64);
            for v in bag {
                v.encode(w);
            }
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let n = r.get_varint()? as usize;
        if n > r.remaining() {
            return Err(CryptoError::Malformed("request too large".into()));
        }
        let mut attributes = BTreeMap::new();
        for _ in 0..n {
            let id = AttributeId::decode(r)?;
            let bag: Vec<AttributeValue> = decode_seq(r)?;
            attributes.insert(id, bag);
        }
        Ok(Request {
            attributes: Arc::new(attributes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_crypto::codec::{Decode, Encode};

    #[test]
    fn category_parse_round_trip() {
        for c in Category::ALL {
            assert_eq!(Category::parse(c.as_str()).unwrap(), c);
        }
        assert!(Category::parse("bogus").is_err());
    }

    #[test]
    fn attribute_id_parse() {
        let id = AttributeId::parse("subject.role").unwrap();
        assert_eq!(id.category, Category::Subject);
        assert_eq!(id.name, "role");
        assert_eq!(id.to_string(), "subject.role");
        assert!(AttributeId::parse("norole").is_err());
        assert!(AttributeId::parse("subject.").is_err());
        assert!(AttributeId::parse("planet.role").is_err());
    }

    #[test]
    fn value_equality_coerces_numerics() {
        assert_eq!(AttributeValue::Int(3), AttributeValue::Double(3.0));
        assert_ne!(AttributeValue::Int(3), AttributeValue::Double(3.5));
        assert_ne!(AttributeValue::Str("3".into()), AttributeValue::Int(3));
        assert_ne!(AttributeValue::Bool(true), AttributeValue::Int(1));
    }

    #[test]
    fn builder_and_bags() {
        let req = Request::builder()
            .subject("role", "doctor")
            .subject("role", "researcher")
            .resource("type", "record")
            .build();
        assert_eq!(req.bag(Category::Subject, "role").len(), 2);
        assert_eq!(req.bag(Category::Resource, "type").len(), 1);
        assert!(req.bag(Category::Action, "id").is_empty());
        assert_eq!(req.len(), 2);
    }

    #[test]
    fn canonical_encoding_is_order_independent() {
        let mut a = Request::new();
        a.add(Category::Subject, "role", "doctor");
        a.add(Category::Resource, "type", "record");
        let mut b = Request::new();
        b.add(Category::Resource, "type", "record");
        b.add(Category::Subject, "role", "doctor");
        assert_eq!(a.to_canonical_bytes(), b.to_canonical_bytes());
        assert_eq!(a.canonical_digest(), b.canonical_digest());
    }

    #[test]
    fn encoding_round_trips() {
        let req = Request::builder()
            .subject("role", "nurse")
            .subject("clearance", 3i64)
            .resource("sensitivity", 0.7)
            .action("id", "write")
            .environment("emergency", true)
            .build();
        let bytes = req.to_canonical_bytes();
        let back = Request::from_canonical_bytes(&bytes).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn tampered_encoding_changes_digest() {
        // The monitor contract relies on this: any modification of the
        // request between PEP and PDP changes its canonical digest.
        let req = Request::builder().subject("role", "doctor").build();
        let tampered = Request::builder().subject("role", "admin").build();
        assert_ne!(req.canonical_digest(), tampered.canonical_digest());
    }

    #[test]
    fn clones_share_the_map_until_one_changes() {
        let original = Request::builder().subject("role", "doctor").build();
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.attributes, &copy.attributes));
        copy.add(Category::Subject, "role", "admin");
        assert!(!Arc::ptr_eq(&original.attributes, &copy.attributes));
        assert_eq!(original.bag(Category::Subject, "role").len(), 1);
        assert_eq!(copy.bag(Category::Subject, "role").len(), 2);
        assert_ne!(original.canonical_digest(), copy.canonical_digest());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::from_canonical_bytes(&[0xff, 0xff, 0xff]).is_err());
        assert!(AttributeValue::from_canonical_bytes(&[9]).is_err());
    }

    #[test]
    fn value_display() {
        assert_eq!(AttributeValue::from("x").to_string(), "\"x\"");
        assert_eq!(AttributeValue::from(42i64).to_string(), "42");
        assert_eq!(AttributeValue::from(true).to_string(), "true");
    }
}
