//! Property-based tests for the front end.
//!
//! Two invariants carry the sharding design: the name-range partition
//! tiles the namespace exactly (every name belongs to exactly one
//! shard, and `shard_of` inverts `range`), and every acquire→release
//! round-trip lands on the shard that issued the name — including
//! grants that spilled off their home shard, whose releases must follow
//! the *route*, not the label hash.
//!
//! A model test then checks the front end's admission state against a
//! per-label model after every call of random scripts: `submit` is the
//! service's only validation, so its verdicts, the routes and the
//! shards' queues and holders must agree with the model throughout.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bil_runtime::adversary::RandomCrash;
use bil_runtime::{Label, Name, ProcId, SeedTree};
use bil_service::{
    NamePartition, Request, ServiceError, ServiceOptions, ShardError, ShardedOptions,
    ShardedService,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The partition is total and disjoint over `0..capacity`: ranges
    /// tile the namespace contiguously in shard order, and `shard_of`
    /// maps every name back into the range that contains it.
    #[test]
    fn partition_is_total_and_disjoint(capacity in 1usize..400, shard_pick in 1usize..32) {
        let shards = 1 + shard_pick % capacity.min(31);
        let p = NamePartition::new(capacity, shards).unwrap();
        let mut next = 0usize;
        for s in 0..shards {
            let r = p.range(s);
            prop_assert_eq!(r.start, next, "gap or overlap before shard {}", s);
            prop_assert!(r.end > r.start, "empty shard {}", s);
            next = r.end;
        }
        prop_assert_eq!(next, capacity, "ranges must cover the namespace");
        for name in 0..capacity {
            prop_assert!(p.range(p.shard_of(name)).contains(&name));
        }
    }

    /// Acquire→release round-trips route to the issuing shard: each
    /// granted name lies in the range of the shard the label is routed
    /// to (spilled or not), and the release is processed by that same
    /// shard, after which the route is retired and nothing is held.
    #[test]
    fn releases_route_to_the_issuing_shard(
        capacity in 4usize..96,
        shard_pick in 0usize..32,
        raw_labels in prop::collection::vec(any::<u64>(), 1..64),
        seed in any::<u64>(),
    ) {
        let shards = 2 + shard_pick % (capacity.min(7) - 1);
        let mut labels: Vec<u64> = raw_labels;
        labels.sort_unstable();
        labels.dedup();
        labels.truncate(capacity);
        let labels: Vec<Label> = labels.into_iter().map(Label).collect();

        let mut service =
            ShardedService::new(capacity, shards, seed, ShardedOptions::default()).unwrap();
        let acquires: Vec<Request> = labels.iter().map(|l| Request::Acquire(*l)).collect();
        let granted = service.step(&acquires).unwrap().granted;
        // The batch fits the namespace and nothing crashes, so ring
        // spill always finds a shard with room: every label is granted.
        prop_assert_eq!(granted.len(), labels.len());

        let partition = *service.partition();
        let mut spilled = 0usize;
        for (l, n) in &granted {
            let issuer = partition.shard_of(n.0 as usize);
            prop_assert_eq!(service.route_of(*l), Some(issuer), "route must track the issuer");
            prop_assert_eq!(service.name_of(*l), Some(*n));
            spilled += usize::from(issuer != partition.home_shard(*l));
        }

        let releases: Vec<Request> = labels.iter().map(|l| Request::Release(*l)).collect();
        let report = service.step(&releases).unwrap();
        for (l, n) in &granted {
            let issuer = partition.shard_of(n.0 as usize);
            let shard_report = report.shards[issuer].as_ref().unwrap();
            prop_assert!(
                shard_report.released.iter().any(|(rl, _)| rl == l),
                "label {:?} (spilled: {}) released on a shard other than its issuer",
                l,
                issuer != partition.home_shard(*l)
            );
            prop_assert_eq!(service.route_of(*l), None, "route must retire on release");
        }
        prop_assert_eq!(report.released.len(), labels.len());
        prop_assert_eq!(service.held(), 0);
        // Not asserted per-case (tiny batches may hash clean), but the
        // property above covered spilled grants whenever they occurred.
        let _ = spilled;
    }
}

/// Labels the model scripts draw from.
const LABELS: u64 = 16;

/// One call of a model script.
#[derive(Debug, Clone)]
enum Op {
    /// `submit` of arbitrary `(acquire?, label)` requests: mostly
    /// invalid batches.
    Submit(Vec<(bool, u64)>),
    /// `submit` of a batch the model accepts: bit `i` of the mask picks
    /// label `i` — an acquire if it is absent, a release if it holds a
    /// name and no release is staged.
    Valid(u64),
    /// `begin`, refused while an epoch is in flight.
    Begin,
    /// `execute_all` against per-shard `RandomCrash` adversaries drawn
    /// from this seed, then `complete` — refused with no epoch in flight.
    Complete(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec((any::<bool>(), 0..LABELS), 1..5).prop_map(Op::Submit),
        any::<u64>().prop_map(Op::Valid),
        Just(Op::Begin),
        any::<u64>().prop_map(Op::Complete),
    ]
}

/// Where a label is, with its shard; a label with no place is absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// In its shard's backlog.
    Queued(usize),
    /// In the cohort of the epoch in flight.
    Admitted(usize),
    /// Holding a global name.
    Held(usize, Name),
    /// Holding a global name, with a release staged.
    Releasing(usize, Name),
}

impl Place {
    fn shard(self) -> usize {
        match self {
            Place::Queued(s) | Place::Admitted(s) | Place::Held(s, _) | Place::Releasing(s, _) => s,
        }
    }

    fn name(self) -> Option<Name> {
        match self {
            Place::Held(_, n) | Place::Releasing(_, n) => Some(n),
            Place::Queued(_) | Place::Admitted(_) => None,
        }
    }
}

/// The front end's admission state, kept per label.
#[derive(Debug)]
struct Model {
    places: BTreeMap<Label, Place>,
    /// Each shard's FIFO queue: the cohort in flight, then the backlog.
    queues: Vec<VecDeque<Label>>,
    /// Each shard's cohort size while an epoch is in flight.
    cohorts: Vec<usize>,
    in_flight: bool,
}

impl Model {
    fn new(shards: usize) -> Model {
        Model {
            places: BTreeMap::new(),
            queues: vec![VecDeque::new(); shards],
            cohorts: vec![0; shards],
            in_flight: false,
        }
    }

    /// The verdict `submit` must reach on `batch`.
    fn verdict(&self, batch: &[Request]) -> Result<(), ServiceError> {
        let mut seen = BTreeSet::new();
        for r in batch {
            let (label, acquire) = match *r {
                Request::Acquire(l) => (l, true),
                Request::Release(l) => (l, false),
            };
            if !seen.insert(label) {
                return Err(ServiceError::DuplicateRequest(label));
            }
            match (acquire, self.places.get(&label)) {
                (true, None) | (false, Some(Place::Held(..))) => {}
                (true, Some(Place::Held(..) | Place::Releasing(..))) => {
                    return Err(ServiceError::AlreadyHolding(label))
                }
                (true, Some(Place::Queued(_) | Place::Admitted(_))) => {
                    return Err(ServiceError::AlreadyQueued(label))
                }
                (false, Some(Place::Releasing(..))) => {
                    return Err(ServiceError::DuplicateRequest(label))
                }
                (false, _) => return Err(ServiceError::UnknownHolder(label)),
            }
        }
        Ok(())
    }

    /// A batch the model accepts, chosen by `mask`.
    fn valid_batch(&self, mask: u64) -> Vec<Request> {
        (0..LABELS)
            .filter(|i| mask >> i & 1 == 1)
            .map(Label)
            .filter_map(|l| match self.places.get(&l) {
                None => Some(Request::Acquire(l)),
                Some(Place::Held(..)) => Some(Request::Release(l)),
                Some(_) => None,
            })
            .collect()
    }

    /// Records an accepted batch; each acquire's shard is read from the
    /// service's route.
    fn submit(&mut self, batch: &[Request], svc: &ShardedService) {
        for r in batch {
            match *r {
                Request::Acquire(l) => {
                    let s = svc.route_of(l).expect("an accepted acquire is routed");
                    assert!(s < self.queues.len(), "route to shard {s}");
                    self.places.insert(l, Place::Queued(s));
                    self.queues[s].push_back(l);
                }
                Request::Release(l) => {
                    let Some(Place::Held(s, n)) = self.places.get(&l).copied() else {
                        panic!("accepted release of {l}, which holds nothing");
                    };
                    self.places.insert(l, Place::Releasing(s, n));
                }
            }
        }
    }

    /// Applies staged releases and admits each shard's queue head up to
    /// its free names.
    fn begin(&mut self, partition: &NamePartition) {
        self.places
            .retain(|_, p| !matches!(p, Place::Releasing(..)));
        for s in 0..self.queues.len() {
            let held = self.count(|p| matches!(p, Place::Held(t, _) if t == s));
            let admit = (partition.range(s).len() - held).min(self.queues[s].len());
            for l in self.queues[s].iter().take(admit) {
                self.places.insert(*l, Place::Admitted(s));
            }
            self.cohorts[s] = admit;
        }
        self.in_flight = true;
    }

    fn count(&self, pred: impl Fn(Place) -> bool) -> usize {
        self.places.values().filter(|p| pred(**p)).count()
    }

    fn cohort(&self, s: usize) -> Vec<Label> {
        self.queues[s]
            .iter()
            .take(self.cohorts[s])
            .copied()
            .collect()
    }
}

/// Asserts that the service's visible admission state is the model's.
fn check(svc: &ShardedService, model: &Model) {
    let partition = svc.partition();
    assert_eq!(svc.in_flight(), model.in_flight);
    for l in (0..LABELS).map(Label) {
        let place = model.places.get(&l).copied();
        assert_eq!(svc.route_of(l), place.map(Place::shard), "route of {l}");
        assert_eq!(svc.name_of(l), place.and_then(Place::name), "name of {l}");
    }
    for s in 0..partition.shards() {
        let shard = svc.shard(s);
        let on = |pred: fn(Place) -> bool| model.count(|p| p.shard() == s && pred(p));
        assert_eq!(shard.held(), on(|p| p.name().is_some()), "held on {s}");
        assert_eq!(
            shard.backlog(),
            on(|p| matches!(p, Place::Queued(_))),
            "backlog of {s}"
        );
        assert_eq!(
            shard.staged_releases(),
            on(|p| matches!(p, Place::Releasing(..))),
            "staged releases on {s}"
        );
        assert_eq!(shard.in_flight().is_some(), model.in_flight, "shard {s}");
    }
    let mut names = BTreeSet::new();
    for (l, n) in svc.holders() {
        let place = model.places.get(&l).copied();
        assert_eq!(place.and_then(Place::name), Some(n), "holder {l}");
        let s = svc.route_of(l).expect("a holder is routed");
        assert!(
            partition.range(s).contains(&(n.0 as usize)),
            "{n} off shard {s}"
        );
        assert!(names.insert(n), "{n} held twice");
    }
    assert_eq!(names.len(), model.count(|p| p.name().is_some()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random scripts of `submit` (valid and invalid batches, in flight
    /// or not), `begin`, `execute_all` under crashes and `complete`,
    /// with stalls from a small round limit, keep the front end equal to
    /// the per-label model after every call.
    #[test]
    fn front_end_matches_the_admission_model(
        shards in 1usize..4,
        extra in 0usize..10,
        max_rounds in prop_oneof![Just(None), (3u64..6).prop_map(Some)],
        seed in any::<u64>(),
        script in prop::collection::vec(op(), 1..48),
    ) {
        let options = ShardedOptions {
            shard: ServiceOptions {
                max_rounds,
                ..ServiceOptions::default()
            },
            concurrent: false,
        };
        let mut svc = ShardedService::new(shards + extra, shards, seed, options).unwrap();
        let partition = *svc.partition();
        let mut model = Model::new(shards);
        let mut runs = None;
        for op in script {
            match op {
                Op::Submit(raw) => {
                    let batch: Vec<Request> = raw
                        .into_iter()
                        .map(|(acquire, l)| {
                            if acquire {
                                Request::Acquire(Label(l))
                            } else {
                                Request::Release(Label(l))
                            }
                        })
                        .collect();
                    let want = model.verdict(&batch);
                    let got = svc.submit(&batch);
                    prop_assert_eq!(got, want.clone().map_err(ShardError::Request));
                    if want.is_ok() {
                        model.submit(&batch, &svc);
                    }
                }
                Op::Valid(mask) => {
                    let batch = model.valid_batch(mask);
                    prop_assert_eq!(model.verdict(&batch), Ok(()));
                    prop_assert_eq!(svc.submit(&batch), Ok(()));
                    model.submit(&batch, &svc);
                }
                Op::Begin => match svc.begin() {
                    Ok(begun) => {
                        prop_assert!(!model.in_flight, "begin while in flight");
                        model.begin(&partition);
                        for (s, run) in begun.iter().enumerate() {
                            prop_assert_eq!(run.admitted(), &model.cohort(s)[..], "shard {}", s);
                        }
                        runs = Some(begun);
                    }
                    Err(e) => {
                        prop_assert!(model.in_flight, "begin refused: {}", e);
                        prop_assert_eq!(e, ShardError::Pipeline { in_flight: true });
                    }
                },
                Op::Complete(adversary_seed) => match runs.take() {
                    None => {
                        let rejected = svc.complete(Vec::new()).unwrap_err();
                        prop_assert_eq!(rejected.error, ShardError::Pipeline { in_flight: false });
                    }
                    Some(begun) => {
                        let adversaries = (0..shards)
                            .map(|s| {
                                let seeds = SeedTree::new(adversary_seed);
                                RandomCrash::new(2, 0.5, seeds.process_rng(ProcId(s as u32)))
                            })
                            .collect();
                        let outcomes = ShardedService::execute_all(begun, adversaries, false);
                        let report = svc.complete(outcomes).unwrap();
                        for (s, shard) in report.shards.iter().enumerate() {
                            let cohort = model.cohort(s);
                            model.cohorts[s] = 0;
                            let Ok(shard) = shard else {
                                // A failed cohort stays at the queue head.
                                for l in cohort {
                                    model.places.insert(l, Place::Queued(s));
                                }
                                continue;
                            };
                            prop_assert_eq!(&shard.admitted, &cohort, "shard {}", s);
                            let decided = shard.granted.len() + shard.crashed.len();
                            prop_assert_eq!(decided, cohort.len());
                            model.queues[s].drain(..cohort.len());
                            let start = partition.range(s).start as u32;
                            for (l, n) in &shard.granted {
                                model.places.insert(*l, Place::Held(s, Name(start + n.0)));
                            }
                            for l in &shard.crashed {
                                model.places.remove(l);
                            }
                        }
                        model.in_flight = false;
                    }
                },
            }
            check(&svc, &model);
        }
    }
}
