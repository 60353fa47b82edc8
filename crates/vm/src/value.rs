//! Runtime values and heap addresses.
//!
//! Heap references are 64-bit byte addresses. Following the paper's §4.1, the
//! **most significant bit marks a remote reference**: an object that lives on
//! another endpoint (identified by its canonical address there). Such
//! addresses can never collide with local heap addresses, which live far
//! below bit 63.
//!
//! On-heap encoding packs a [`Value`] into one 64-bit word:
//!
//! * `0` — null,
//! * low bit `1` — a 63-bit integer, payload in the upper bits,
//! * otherwise — a reference; addresses are 8-byte aligned so their low three
//!   bits are zero, and bit 63 may carry the remote mark.

use std::fmt;

/// Bit 63: set on references that point to an object on a remote endpoint.
pub const REMOTE_BIT: u64 = 1 << 63;

/// A heap address (byte address, 8-byte aligned; bit 63 = remote mark).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// `true` when bit 63 marks this as a remote reference.
    pub const fn is_remote(self) -> bool {
        self.0 & REMOTE_BIT != 0
    }

    /// The same address with the remote bit set.
    pub const fn to_remote(self) -> Addr {
        Addr(self.0 | REMOTE_BIT)
    }

    /// The same address with the remote bit cleared (the canonical address on
    /// the owning endpoint).
    pub const fn to_local(self) -> Addr {
        Addr(self.0 & !REMOTE_BIT)
    }

    /// The raw bits.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_remote() {
            write!(f, "@remote:{:#x}", self.to_local().0)
        } else {
            write!(f, "@{:#x}", self.0)
        }
    }
}

/// A value the interpreter manipulates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Value {
    /// The null reference.
    #[default]
    Null,
    /// A 63-bit signed integer (the encoding steals one bit for tagging).
    I64(i64),
    /// A heap reference (possibly remote-marked).
    Ref(Addr),
}

impl Value {
    /// The integer payload, if this is an integer.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Value::I64(x) => Some(x),
            _ => None,
        }
    }

    /// The address, if this is a (non-null) reference.
    pub fn as_ref(self) -> Option<Addr> {
        match self {
            Value::Ref(a) => Some(a),
            _ => None,
        }
    }

    /// Encode into one heap word.
    ///
    /// # Panics
    ///
    /// Panics if an integer does not fit 63 bits or a reference address is
    /// misaligned.
    pub fn encode(self) -> u64 {
        match self {
            Value::Null => 0,
            Value::I64(x) => {
                let shifted = (x as u64) << 1;
                assert_eq!(
                    (shifted as i64) >> 1,
                    x,
                    "integer {x} does not fit in 63 bits"
                );
                shifted | 1
            }
            Value::Ref(a) => {
                assert_eq!(a.to_local().0 & 0b111, 0, "misaligned address {a:?}");
                assert_ne!(a.0, 0, "reference to address 0 would decode as null");
                a.0
            }
        }
    }

    /// Decode from one heap word.
    pub fn decode(word: u64) -> Value {
        if word == 0 {
            Value::Null
        } else if word & 1 == 1 {
            Value::I64((word as i64) >> 1)
        } else {
            Value::Ref(Addr(word))
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::I64(x) => write!(f, "{x}"),
            Value::Ref(a) => write!(f, "{a:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Value {
        Value::I64(x)
    }
}

impl From<Addr> for Value {
    fn from(a: Addr) -> Value {
        Value::Ref(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Value {
        /// `true` for [`Value::Null`].
        fn is_null(self) -> bool {
            matches!(self, Value::Null)
        }
    }

    #[test]
    fn remote_bit_round_trip() {
        let a = Addr(0x2000_0000_0040);
        assert!(!a.is_remote());
        let r = a.to_remote();
        assert!(r.is_remote());
        assert_eq!(r.to_local(), a);
    }

    #[test]
    fn value_encoding_round_trips() {
        for v in [
            Value::Null,
            Value::I64(0),
            Value::I64(42),
            Value::I64(-42),
            Value::I64((1 << 62) - 1),
            Value::I64(-(1 << 62)),
            Value::Ref(Addr(0x1000)),
            Value::Ref(Addr(0x1000).to_remote()),
        ] {
            assert_eq!(Value::decode(v.encode()), v, "{v:?}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_integer_panics() {
        Value::I64(i64::MAX).encode();
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_ref_panics() {
        Value::Ref(Addr(0x1001)).encode();
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::I64(9).as_i64(), Some(9));
        assert_eq!(Value::Null.as_i64(), None);
        assert!(Value::Null.is_null());
        assert_eq!(Value::Ref(Addr(8)).as_ref(), Some(Addr(8)));
    }

    #[test]
    fn remote_refs_survive_encoding() {
        let remote = Value::Ref(Addr(0x4000).to_remote());
        let decoded = Value::decode(remote.encode());
        assert!(decoded.as_ref().unwrap().is_remote());
    }
}
