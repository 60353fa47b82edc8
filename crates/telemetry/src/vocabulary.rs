//! The event vocabulary: every name the simulator emits, as a `Copy` id,
//! with the tracks and kinds it is emitted as.
//!
//! Consumers match on [`EventName`] variants instead of comparing strings,
//! and a recorded event carries the id, not the text. A `&'static str` from
//! outside the vocabulary — a benchmark probe, a test — still records: it
//! resolves through [`EventName::resolve`] to [`EventName::Other`], which
//! keeps the text and is legal nowhere, so the sentinel reports it under
//! `vocabulary`.

use std::fmt;

use crate::{EventKind, Track};

// Track classes and event kinds, as bits of a row's legality.
const REQUEST: u8 = 1;
const INSTANCE: u8 = 2;
const SERVER: u8 = 4;
const PLATFORM: u8 = 8;
const DB: u8 = 16;
const SIM: u8 = 32;
/// A session's names land on the instance track too, which its FaaS
/// endpoint traces before the session exists.
const SESSION: u8 = REQUEST | INSTANCE;
const SPAN: u8 = 1 | 2;
const COMPLETE: u8 = 4;
const INSTANT: u8 = 8;
const COUNTER: u8 = 16;

macro_rules! vocabulary {
    ($($variant:ident = $name:literal ($tracks:expr, $kinds:expr),)+) => {
        /// One event name. [`name`](EventName::name) is its text.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum EventName {
            $(#[doc = concat!("`", $name, "`")] $variant,)+
            /// A name outside the vocabulary.
            Other(&'static str),
        }

        impl EventName {
            /// Every name of the vocabulary, in declaration order.
            pub const ALL: [EventName; [$($name),+].len()] = [$(EventName::$variant),+];

            /// The name's text, as the exporters render it.
            pub const fn name(self) -> &'static str {
                match self {
                    $(EventName::$variant => $name,)+
                    EventName::Other(name) => name,
                }
            }

            /// The vocabulary's id for `name`, or [`EventName::Other`]
            /// keeping the text when the vocabulary has none: the one
            /// name → id table.
            pub fn resolve(name: &'static str) -> EventName {
                match name {
                    $($name => EventName::$variant,)+
                    _ => EventName::Other(name),
                }
            }

            /// The name's position in [`ALL`](EventName::ALL); `None` for
            /// [`EventName::Other`].
            pub const fn index(self) -> Option<usize> {
                /// The variants without their payload, numbered in order.
                enum Position {
                    $($variant,)+
                }
                match self {
                    $(EventName::$variant => Some(Position::$variant as usize),)+
                    EventName::Other(_) => None,
                }
            }

            /// The track classes and the kinds the name is emitted as.
            const fn legality(self) -> (u8, u8) {
                match self {
                    $(EventName::$variant => ($tracks, $kinds),)+
                    EventName::Other(_) => (0, 0),
                }
            }
        }
    };
}

vocabulary! {
    // Request tracks: sessions, their sub-spans and instants.
    ReqServer = "req:server" (SESSION, SPAN | INSTANT),
    ReqOffload = "req:offload" (SESSION, SPAN | INSTANT),
    ReqShadow = "req:shadow" (SESSION, SPAN | INSTANT),
    Recovery = "recovery" (SESSION, SPAN | INSTANT),
    RecoveryDegrade = "recovery:degrade" (SESSION, INSTANT),
    SyncMonitor = "sync:monitor" (SESSION, SPAN | INSTANT),
    SyncVolatile = "sync:volatile" (SESSION, SPAN | INSTANT),
    SyncLockWait = "sync:lock_wait" (SESSION, INSTANT),
    SyncPullDirty = "sync:pull_dirty" (SESSION, INSTANT),
    Snapshot = "snapshot" (SESSION, INSTANT),
    ClosureRefine = "closure:refine" (SESSION, INSTANT),
    Block = "block" (SESSION, INSTANT),
    BootWait = "boot:wait" (SESSION, COMPLETE),
    FallbackCode = "fallback:code" (SESSION, SPAN),
    FallbackData = "fallback:data" (SESSION, SPAN),
    FallbackStatic = "fallback:static" (SESSION, SPAN),
    FallbackDb = "fallback:db" (SESSION, SPAN),
    FallbackNative = "fallback:native" (SESSION, SPAN),
    // A residence on a server pool or a lock is a span; a fixed-length leg
    // or database round is one `Complete`, or a span when it would end past
    // the horizon.
    WaitServerCpu = "wait:server_cpu" (SESSION, SPAN),
    WaitServerCpuFb = "wait:server_cpu:fb" (SESSION, SPAN | COMPLETE),
    WaitFunctionCpu = "wait:function_cpu" (SESSION, SPAN | COMPLETE),
    WaitFunctionCpuFb = "wait:function_cpu:fb" (SESSION, SPAN | COMPLETE),
    WaitNet = "wait:net" (SESSION, SPAN | COMPLETE),
    WaitNetFb = "wait:net:fb" (SESSION, SPAN | COMPLETE),
    WaitDb = "wait:db" (SESSION, SPAN | COMPLETE),
    WaitLock = "wait:lock" (SESSION, SPAN),
    ChaosRpcDrop = "chaos:rpc_drop" (SESSION, INSTANT),
    ChaosRpcDelay = "chaos:rpc_delay" (SESSION, INSTANT),
    // Instance tracks: the boot span and the platform's lifecycle. The
    // driver kills first, then marks why; an armed boot failure is also
    // announced on the kernel's track.
    Boot = "boot" (INSTANCE, SPAN),
    InstanceColdBoot = "instance:cold_boot" (INSTANCE, INSTANT),
    InstanceWarmStart = "instance:warm_start" (INSTANCE, INSTANT),
    InstanceReady = "instance:ready" (INSTANCE, INSTANT),
    InstanceRelease = "instance:release" (INSTANCE, INSTANT),
    InstanceKill = "instance:kill" (INSTANCE, INSTANT),
    ChaosBootFailure = "chaos:boot_failure" (INSTANCE | SIM, INSTANT),
    // A collection on the server or a function, timed by the collector.
    Gc = "gc" (INSTANCE | SERVER, COMPLETE),
    // The platform track.
    InstanceExpire = "instance:expire" (PLATFORM, INSTANT),
    InstancePrewarm = "instance:prewarm" (PLATFORM, INSTANT),
    ChaosCrash = "chaos:crash" (PLATFORM, INSTANT),
    // The server track: the offload ledger, admission, closure construction
    // on first dispatch to a fresh instance (§4.2) and burst-handler routing
    // (§5.1).
    OffloadDecision = "offload:decision" (SERVER, INSTANT),
    OffloadDispatch = "offload:dispatch" (SERVER, INSTANT),
    Rejected = "rejected" (SERVER, INSTANT),
    ClosureBuild = "closure:build" (SERVER, COMPLETE),
    BurstRoute = "burst:route" (SERVER, INSTANT),
    // The database track. `db:round` marks a server request's round (an
    // offloaded request's is its `wait:db`); `db:execute` a function query
    // the proxy ran.
    DbRound = "db:round" (DB, INSTANT),
    DbExecute = "db:execute" (DB, INSTANT),
    ChaosDbReconnect = "chaos:db_reconnect" (DB, INSTANT),
    // The simulation kernel: counters, probes and armed faults.
    EventQueue = "event_queue" (SIM, COUNTER),
    ServerPool = "server_pool" (SIM, COUNTER),
    Inflight = "inflight" (SIM, COUNTER),
    IdleInstances = "idle_instances" (SIM, COUNTER),
    PoolDepth = "pool:depth" (SIM, INSTANT),
    BurstOnset = "burst:onset" (SIM, INSTANT),
    ChaosArmRpcDrop = "chaos:arm_rpc_drop" (SIM, INSTANT),
    ChaosArmRpcDelay = "chaos:arm_rpc_delay" (SIM, INSTANT),
    ChaosNetDegrade = "chaos:net_degrade" (SIM, INSTANT),
    ChaosArmDbDrop = "chaos:arm_db_drop" (SIM, INSTANT),
}

impl EventName {
    /// Whether the simulator emits this name as `kind` on `track`: the
    /// table the sentinel's `vocabulary` invariant reads.
    pub fn legal(self, track: Track, kind: EventKind) -> bool {
        let (tracks, kinds) = self.legality();
        let track = match track {
            Track::Request(_) => REQUEST,
            Track::Instance(_) => INSTANCE,
            Track::Server => SERVER,
            Track::Platform => PLATFORM,
            Track::Db => DB,
            Track::Sim => SIM,
        };
        let kind = match kind {
            EventKind::Begin => 1,
            EventKind::End => 2,
            EventKind::Complete(_) => COMPLETE,
            EventKind::Instant => INSTANT,
            EventKind::Counter(_) => COUNTER,
        };
        tracks & track != 0 && kinds & kind != 0
    }

    /// A session span (`req:*`): the one span a request track opens first
    /// and closes last.
    pub fn is_session(self) -> bool {
        matches!(self, Self::ReqServer | Self::ReqOffload | Self::ReqShadow)
    }

    /// A residence span (`wait:*`): queueing plus service on one resource.
    pub fn is_residence(self) -> bool {
        matches!(
            self,
            Self::WaitServerCpu
                | Self::WaitServerCpuFb
                | Self::WaitFunctionCpu
                | Self::WaitFunctionCpuFb
                | Self::WaitNet
                | Self::WaitNetFb
                | Self::WaitDb
                | Self::WaitLock
        )
    }
}

impl From<&'static str> for EventName {
    fn from(name: &'static str) -> EventName {
        EventName::resolve(name)
    }
}

impl PartialEq<&str> for EventName {
    fn eq(&self, other: &&str) -> bool {
        self.name() == *other
    }
}

impl fmt::Display for EventName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_to_its_own_variant() {
        for e in EventName::ALL {
            assert_eq!(EventName::resolve(e.name()), e, "{e}");
            assert_eq!(EventName::from(e.name()).name(), e.name());
        }
        let mut names: Vec<_> = EventName::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventName::ALL.len(), "names are distinct");
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, e) in EventName::ALL.into_iter().enumerate() {
            assert_eq!(e.index(), Some(i), "{e}");
        }
        assert_eq!(EventName::Other("bench").index(), None);
    }

    #[test]
    fn unknown_names_become_other_and_keep_their_text() {
        for name in [
            "bench",
            "",
            "x",
            "req:",
            "gcx",
            "wait:net:fbb",
            "we\"ird:na\\me\n",
        ] {
            let e = EventName::resolve(name);
            assert_eq!(e, EventName::Other(name));
            assert_eq!((e.name(), e.to_string()), (name, name.to_string()));
            assert!(!e.is_session() && !e.is_residence());
            assert!(!e.legal(Track::Request(1), EventKind::Instant));
        }
        assert!(EventName::ReqShadow.is_session() && EventName::WaitLock.is_residence());
        assert!(EventName::Gc == "gc" && EventName::Other("gc") == "gc");
        let pause = EventKind::Complete(beehive_sim::Duration::ZERO);
        assert!(EventName::Gc.legal(Track::Server, pause));
        assert!(!EventName::Gc.legal(Track::Request(1), pause));
        assert!(!EventName::Gc.legal(Track::Server, EventKind::Instant));
    }
}
