//! The serving loop's pending set: a min-heap of future arrivals plus
//! the ready set, every request that has arrived by the last admission
//! instant.
//!
//! The ready set stores requests by slot under three ordered indexes,
//! so forming a batch reads index entries instead of scanning the
//! backlog:
//!
//! | index | key | answers |
//! |---|---|---|
//! | FCFS | `(arrival, id, slot)` | the earliest arrival; the starvation cap |
//! | seed | `(primary, arrival, id, slot)` | the policy's batch seed |
//! | shape | `(tenant, n, k, arrival, id, slot)` | the seed's mates |
//!
//! The seed key's `(primary, arrival)` is `(arrival, 0)` under FIFO,
//! `(deadline, arrival)` under EDF and `(255 − priority, arrival)` under
//! the priority policy. Floats compare with `partial_cmp`, ids break
//! ties, and the slot breaks ties between requests that share an id, so
//! duplicate ids stay distinct requests. Every operation costs
//! O(log n) per request it touches.

use crate::request::ServeRequest;
use crate::runtime::SchedPolicy;
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// `(arrival, id)` FCFS ordering.
pub(crate) fn fcfs(a: &ServeRequest, b: &ServeRequest) -> Ordering {
    a.arrival_ns
        .partial_cmp(&b.arrival_ns)
        .expect("finite arrivals")
        .then(a.id.cmp(&b.id))
}

/// Min-heap key: requests ordered by arrival time, ties by id.
#[derive(Debug, Clone)]
struct ByArrival(ServeRequest);

impl PartialEq for ByArrival {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ByArrival {}

impl PartialOrd for ByArrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByArrival {
    fn cmp(&self, other: &Self) -> Ordering {
        // FCFS order reversed: BinaryHeap is a max-heap, we want the
        // earliest arrival on top.
        fcfs(&other.0, &self.0)
    }
}

/// An index float, ordered by `partial_cmp`: equal values tie and a
/// NaN panics when compared.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key(f64);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("finite keys")
    }
}

type FcfsKey = (Key, u64, usize);
type SeedKey = (Key, Key, u64, usize);
type ShapeKey = (usize, usize, usize, Key, u64, usize);

/// The pending set shared by the open- and closed-loop drivers.
#[derive(Debug)]
pub(crate) struct PendingQueue {
    policy: SchedPolicy,
    future: BinaryHeap<ByArrival>,
    /// Ready requests by slot; `None` marks a free slot.
    slots: Vec<Option<ServeRequest>>,
    free: Vec<usize>,
    by_fcfs: BTreeSet<FcfsKey>,
    by_seed: BTreeSet<SeedKey>,
    by_shape: BTreeSet<ShapeKey>,
}

impl PendingQueue {
    /// An empty pending set seeding batches under `policy`.
    pub(crate) fn new(policy: SchedPolicy) -> Self {
        Self {
            policy,
            future: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            by_fcfs: BTreeSet::new(),
            by_seed: BTreeSet::new(),
            by_shape: BTreeSet::new(),
        }
    }

    /// Queues a request that arrives in the future.
    pub(crate) fn push(&mut self, r: ServeRequest) {
        self.future.push(ByArrival(r));
    }

    /// Whether nothing is pending: no future arrival and no ready
    /// request.
    pub(crate) fn is_empty(&self) -> bool {
        self.future.is_empty() && self.by_fcfs.is_empty()
    }

    /// Earliest arrival over everything still pending.
    pub(crate) fn earliest_arrival(&self) -> f64 {
        let ready = self.by_fcfs.first().map_or(f64::INFINITY, |e| e.0 .0);
        let future = self.future.peek().map_or(f64::INFINITY, |b| b.0.arrival_ns);
        ready.min(future)
    }

    /// Moves every request that has arrived by `now` into the ready set.
    pub(crate) fn admit_until(&mut self, now: f64) {
        while self.future.peek().is_some_and(|b| b.0.arrival_ns <= now) {
            let r = self.future.pop().expect("peeked").0;
            self.insert(r);
        }
    }

    /// Adds a request to the ready set: at admission, or when the power
    /// governor hands a batch member back.
    pub(crate) fn insert(&mut self, r: ServeRequest) {
        let slot = self.free.pop().unwrap_or(self.slots.len());
        let (fcfs, seed, shape) = self.keys(&r, slot);
        self.by_fcfs.insert(fcfs);
        self.by_seed.insert(seed);
        self.by_shape.insert(shape);
        if slot == self.slots.len() {
            self.slots.push(Some(r));
        } else {
            self.slots[slot] = Some(r);
        }
    }

    /// Removes and returns the policy's seed among the ready requests
    /// at admission instant `now`, or `None` if nothing is ready.
    ///
    /// Under the priority policy a request waiting longer than
    /// `max_wait_ns` wins regardless of class, oldest first. Being over
    /// the cap is monotone in arrival, so if any ready request is over
    /// it, the FCFS-first one is.
    pub(crate) fn take_seed(&mut self, now: f64, max_wait_ns: f64) -> Option<ServeRequest> {
        let &(oldest, _, oldest_slot) = self.by_fcfs.first()?;
        let slot = if self.policy == SchedPolicy::PriorityWeighted && now - oldest.0 > max_wait_ns {
            oldest_slot
        } else {
            self.by_seed
                .first()
                .expect("indexes hold the same requests")
                .3
        };
        Some(self.remove(slot))
    }

    /// Removes and returns, in FCFS order, up to `max` mates of `seed`:
    /// ready requests of its tenant and shape that arrived no later
    /// than `window_ns` after it.
    pub(crate) fn take_mates(
        &mut self,
        seed: &ServeRequest,
        window_ns: f64,
        max: usize,
    ) -> Vec<ServeRequest> {
        let shape = (seed.tenant, seed.n, seed.k());
        let limit = seed.arrival_ns + window_ns;
        let from = (shape.0, shape.1, shape.2, Key(f64::NEG_INFINITY), 0, 0);
        let slots: Vec<usize> = self
            .by_shape
            .range(from..)
            .take_while(|e| (e.0, e.1, e.2) == shape && e.3 .0 <= limit)
            .take(max)
            .map(|e| e.5)
            .collect();
        slots.into_iter().map(|s| self.remove(s)).collect()
    }

    /// The three index keys of `r` stored at `slot`.
    fn keys(&self, r: &ServeRequest, slot: usize) -> (FcfsKey, SeedKey, ShapeKey) {
        let arrival = Key(r.arrival_ns);
        let primary = match self.policy {
            SchedPolicy::Fifo => (arrival, Key(0.0)),
            SchedPolicy::EarliestDeadlineFirst => (Key(r.deadline_ns()), arrival),
            SchedPolicy::PriorityWeighted => (Key(f64::from(u8::MAX - r.class.priority)), arrival),
        };
        (
            (arrival, r.id, slot),
            (primary.0, primary.1, r.id, slot),
            (r.tenant, r.n, r.k(), arrival, r.id, slot),
        )
    }

    /// Takes the request at `slot` out of the ready set and its indexes.
    fn remove(&mut self, slot: usize) -> ServeRequest {
        let r = self.slots[slot]
            .take()
            .expect("an indexed slot holds a request");
        let (fcfs, seed, shape) = self.keys(&r, slot);
        let indexed =
            self.by_fcfs.remove(&fcfs) & self.by_seed.remove(&seed) & self.by_shape.remove(&shape);
        debug_assert!(indexed, "every index holds the request");
        self.free.push(slot);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ServiceClass;
    use proptest::prelude::*;

    /// The linear scans the indexes replaced: the policy's argmin over
    /// the ready list (the priority policy's oldest over-cap request
    /// first), then every other ready request of the seed's tenant and
    /// shape that arrived within the window, sorted FCFS and truncated
    /// to `max_mates`. Returns positions in `ready`.
    fn scan(
        ready: &[ServeRequest],
        policy: SchedPolicy,
        now: f64,
        max_wait_ns: f64,
        window_ns: f64,
        max_mates: usize,
    ) -> (usize, Vec<usize>) {
        let argmin_by = |key: &dyn Fn(&ServeRequest) -> (f64, f64, u64)| -> usize {
            (0..ready.len())
                .min_by(|&a, &b| {
                    let (ka, kb) = (key(&ready[a]), key(&ready[b]));
                    ka.0.partial_cmp(&kb.0)
                        .expect("finite keys")
                        .then(ka.1.partial_cmp(&kb.1).expect("finite keys"))
                        .then(ka.2.cmp(&kb.2))
                })
                .expect("non-empty ready set")
        };
        let seed = match policy {
            SchedPolicy::Fifo => argmin_by(&|r| (r.arrival_ns, 0.0, r.id)),
            SchedPolicy::EarliestDeadlineFirst => {
                argmin_by(&|r| (r.deadline_ns(), r.arrival_ns, r.id))
            }
            SchedPolicy::PriorityWeighted => (0..ready.len())
                .filter(|&i| now - ready[i].arrival_ns > max_wait_ns)
                .min_by(|&a, &b| fcfs(&ready[a], &ready[b]))
                .unwrap_or_else(|| {
                    argmin_by(&|r| (f64::from(u8::MAX - r.class.priority), r.arrival_ns, r.id))
                }),
        };
        let s = &ready[seed];
        let mut mates: Vec<usize> = (0..ready.len())
            .filter(|&i| {
                let r = &ready[i];
                i != seed
                    && r.tenant == s.tenant
                    && r.n == s.n
                    && r.k() == s.k()
                    && r.arrival_ns <= s.arrival_ns + window_ns
            })
            .collect();
        mates.sort_by(|&a, &b| fcfs(&ready[a], &ready[b]));
        mates.truncate(max_mates);
        (seed, mates)
    }

    /// Ready request `i` from a drawn spec: arrival tick (1 µs apart, so
    /// arrivals tie), tenant, one of two shapes, priority, and a
    /// relative deadline that is best-effort (`+∞`) or one of two
    /// finite ones. Ids are distinct and unrelated to arrival order.
    fn request(
        i: usize,
        (tick, tenant, wide, priority, deadline): (u32, usize, bool, u8, usize),
    ) -> ServeRequest {
        let (n, k) = if wide { (16, 8) } else { (8, 4) };
        ServeRequest {
            id: (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            arrival_ns: f64::from(tick) * 1_000.0,
            tenant,
            class: ServiceClass {
                priority,
                deadline_ns: [f64::INFINITY, 3_000.0, 20_000.0][deadline],
            },
            n,
            x: vec![1; k],
        }
    }

    const POLICIES: [SchedPolicy; 3] = [
        SchedPolicy::Fifo,
        SchedPolicy::EarliestDeadlineFirst,
        SchedPolicy::PriorityWeighted,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Drains a random ready set batch by batch, handing every other
        /// batch's last mate back as the power governor's shrink does,
        /// and checks that the indexes pick the seed and the mates the
        /// linear scans pick, with the admission instant crossing the
        /// starvation cap on the way.
        #[test]
        fn indexes_pick_the_seed_and_mates_the_scan_picks(
            specs in prop::collection::vec((0u32..12, 0usize..4, any::<bool>(), 0u8..4, 0usize..3), 1..=64),
            policy in 0usize..3,
            waited_us in 0u32..16,
            max_wait_ns in prop::sample::select(vec![10_000.0, f64::INFINITY]),
            window_ns in prop::sample::select(vec![0.0, 1_000.0, 2_500.0, 1e9]),
            max_batch in 1usize..=8,
        ) {
            let policy = POLICIES[policy];
            let mut ready: Vec<ServeRequest> =
                specs.iter().enumerate().map(|(i, &s)| request(i, s)).collect();
            let mut q = PendingQueue::new(policy);
            for r in &ready {
                q.push(r.clone());
            }
            let last = ready.iter().map(|r| r.arrival_ns).fold(0.0, f64::max);
            let mut now = last + f64::from(waited_us) * 1_000.0;
            q.admit_until(now);
            let mut round = 0;
            while !ready.is_empty() {
                let earliest = ready.iter().map(|r| r.arrival_ns).fold(f64::INFINITY, f64::min);
                prop_assert_eq!(q.earliest_arrival(), earliest);
                let (s, m) = scan(&ready, policy, now, max_wait_ns, window_ns, max_batch - 1);
                let seed = q.take_seed(now, max_wait_ns).expect("a ready request");
                let mates = q.take_mates(&seed, window_ns, max_batch - 1);
                prop_assert_eq!(seed.id, ready[s].id, "seed, round {}", round);
                let ids: Vec<u64> = mates.iter().map(|r| r.id).collect();
                let want: Vec<u64> = m.iter().map(|&i| ready[i].id).collect();
                prop_assert_eq!(ids, want, "mates, round {}", round);
                let mut taken = m;
                taken.push(s);
                taken.sort_unstable();
                for &i in taken.iter().rev() {
                    ready.remove(i);
                }
                if round % 2 == 1 {
                    if let Some(back) = mates.last() {
                        q.insert(back.clone());
                        ready.push(back.clone());
                    }
                }
                round += 1;
                now += 1_000.0;
            }
            prop_assert!(q.is_empty());
        }
    }
}
