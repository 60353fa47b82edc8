//! Newtype identifiers used across the runtime.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self, f)
            }
        }
    };
}

id_type!(
    /// Index of a class in a [`Program`](crate::program::Program).
    ClassId,
    "class#"
);
id_type!(
    /// Index of a method in a [`Program`](crate::program::Program).
    MethodId,
    "method#"
);
id_type!(
    /// Index of a native method descriptor in a
    /// [`Program`](crate::program::Program).
    NativeId,
    "native#"
);
id_type!(
    /// Index of a dynamic-dispatch stub (interceptor) in a
    /// [`Program`](crate::program::Program).
    StubId,
    "stub#"
);
id_type!(
    /// Index of a static variable slot in a
    /// [`Program`](crate::program::Program).
    StaticSlot,
    "static#"
);

/// Identifies one endpoint of the distributed execution: the server or a
/// particular FaaS function instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EndpointId {
    /// The long-running monolith server.
    Server,
    /// FaaS function instance number `n`.
    Function(u32),
}

impl fmt::Debug for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointId::Server => write!(f, "server"),
            EndpointId::Function(n) => write!(f, "func#{n}"),
        }
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EndpointId {
        /// `true` for the server endpoint.
        fn is_server(self) -> bool {
            matches!(self, EndpointId::Server)
        }
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", ClassId(3)), "class#3");
        assert_eq!(format!("{:?}", MethodId(1)), "method#1");
        assert_eq!(format!("{}", EndpointId::Server), "server");
        assert_eq!(format!("{}", EndpointId::Function(2)), "func#2");
    }

    #[test]
    fn endpoint_kind_checks() {
        assert!(EndpointId::Server.is_server());
        assert!(!EndpointId::Function(0).is_server());
    }
}
