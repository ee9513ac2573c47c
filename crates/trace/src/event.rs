//! Typed trace events and track identities.

/// Perfetto process id for the DRAM layer (the host fetch queue's
/// per-bank lanes).
pub const PID_DRAM: u32 = 1;
/// Perfetto process id for the core layer (engine launches).
pub const PID_CORE: u32 = 2;
/// Perfetto process id for the serving layer (request pipeline).
pub const PID_SERVE: u32 = 3;

/// A timeline track: the Perfetto `(pid, tid)` pair an event lands on.
///
/// The pid selects the execution layer ([`PID_DRAM`] / [`PID_CORE`] /
/// [`PID_SERVE`]); the tid encodes the lane within it. The constructors
/// own the encodings so emitters and the exporter's track labels agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Track {
    /// Perfetto process id — the execution layer.
    pub pid: u32,
    /// Perfetto thread id — the lane within the layer.
    pub tid: u32,
}

/// Tid bit marking a DRAM host-fetch bank lane. Exported traces carry
/// it, so changing it changes their bytes.
const FETCH_LANE: u32 = 0x0100_0000;

impl Track {
    /// An arbitrary track.
    #[must_use]
    pub const fn new(pid: u32, tid: u32) -> Self {
        Self { pid, tid }
    }

    /// The host-fetch lane of one bank of the FR-FCFS request queue.
    #[must_use]
    pub const fn dram_fetch(bank: u32) -> Self {
        Self::new(PID_DRAM, FETCH_LANE | bank)
    }

    /// A core-layer track: tid 0 is the launch track (launch spans,
    /// merge rounds, cache counters); tid `1 + c` is channel `c`'s
    /// shard-execution track.
    #[must_use]
    pub const fn core(tid: u32) -> Self {
        Self::new(PID_CORE, tid)
    }

    /// A serve-layer track: tid 0 = requests (arrival/completion
    /// instants, queue-depth counter), tid 1 = planner (fetch + plan),
    /// tid 2 = engine (reload / dispatch / exec spans, power counter).
    #[must_use]
    pub const fn serve(tid: u32) -> Self {
        Self::new(PID_SERVE, tid)
    }
}

/// One structured trace event. All payloads are `Copy` (`&'static str`
/// names, numeric fields), so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A span opens on `track` at `t_ns`. Spans on one track must nest:
    /// emitters record begin/end pairs back-to-back (via
    /// [`TraceSink::span`](crate::TraceSink::span)), and a span lies
    /// within any span still open around it on its track. Sibling spans
    /// may overlap in time.
    Begin {
        /// Start instant, ns.
        t_ns: f64,
        /// Span name (static — recording stays allocation-free).
        name: &'static str,
        /// Category: the emitting layer (`"dram"` / `"core"` / `"serve"`).
        cat: &'static str,
        /// Timeline track.
        track: Track,
    },
    /// The innermost open span on `track` closes at `t_ns`.
    End {
        /// End instant, ns.
        t_ns: f64,
        /// Timeline track.
        track: Track,
    },
    /// A point event (e.g. a request arrival).
    Instant {
        /// Instant, ns.
        t_ns: f64,
        /// Event name.
        name: &'static str,
        /// Category: the emitting layer.
        cat: &'static str,
        /// Timeline track.
        track: Track,
    },
    /// A numeric counter sample (e.g. queue depth, cache hit tallies).
    Counter {
        /// Sample instant, ns.
        t_ns: f64,
        /// Counter series name.
        name: &'static str,
        /// Category: the emitting layer.
        cat: &'static str,
        /// Timeline track.
        track: Track,
        /// Sampled value.
        value: f64,
    },
}

impl TraceEvent {
    /// The event's timestamp, ns.
    #[must_use]
    pub fn t_ns(&self) -> f64 {
        match self {
            Self::Begin { t_ns, .. }
            | Self::End { t_ns, .. }
            | Self::Instant { t_ns, .. }
            | Self::Counter { t_ns, .. } => *t_ns,
        }
    }

    /// The track the event lands on.
    #[must_use]
    pub fn track(&self) -> Track {
        match self {
            Self::Begin { track, .. }
            | Self::End { track, .. }
            | Self::Instant { track, .. }
            | Self::Counter { track, .. } => *track,
        }
    }

    /// The event's category, if it carries one (`End` does not).
    #[must_use]
    pub fn cat(&self) -> Option<&'static str> {
        match self {
            Self::Begin { cat, .. } | Self::Instant { cat, .. } | Self::Counter { cat, .. } => {
                Some(cat)
            }
            Self::End { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_encodings_round_trip() {
        assert_eq!(Track::dram_fetch(5), Track::new(PID_DRAM, 0x0100_0005));
        assert_eq!(Track::core(0).pid, PID_CORE);
        assert_eq!(Track::serve(2).tid, 2);
    }

    #[test]
    fn event_accessors() {
        let ev = TraceEvent::Counter {
            t_ns: 12.5,
            name: "queue_depth",
            cat: "serve",
            track: Track::serve(0),
            value: 4.0,
        };
        assert_eq!(ev.t_ns(), 12.5);
        assert_eq!(ev.track(), Track::serve(0));
        assert_eq!(ev.cat(), Some("serve"));
        let end = TraceEvent::End {
            t_ns: 1.0,
            track: Track::core(0),
        };
        assert_eq!(end.cat(), None);
    }
}
