//! The composed closed loop, assembled only from public library calls.
//!
//! One fleet cycle is, for every machine in lockstep:
//!
//! 1. noise: `SparseFlips` → `ErrorTracker::flip` → `SyndromeBatch::set_qubit_round`;
//! 2. `BtwcMachine::step_deferred` (sticky filter, Clique decision,
//!    window gather, v2 frame + CRC, link queue);
//! 3. off-chip resolution: inline `replay_into` + `decode_stream_mut`,
//!    or one `DecodeFarm::service_cycle` for the whole fleet;
//! 4. `BtwcMachine::complete` → `ErrorTracker::apply`.
//!
//! A traced fleet additionally times each of those calls and runs two
//! shadow calls that never feed the loop: a `BatchFrontend` on the same
//! batches (the Clique decision mix) and an `encode_v2`/`decode_v2`
//! round trip per escalation (the frame layer).

use std::sync::Mutex;
use std::time::Instant;

use btwc_bandwidth::DecodeRequest;
use btwc_core::{
    BatchFrontend, BtwcMachine, CliqueDecision, ComplexDecoder, DecoderBackend, DecoderStats,
    LinkFaultModel, MachineStats, PendingCycle, RejectReason, ServiceResponse, StabilizerType,
    SurfaceCode, TransportStats,
};
use btwc_noise::{SimRng, SparseFlips};
use btwc_sim::{DecodeFarm, ErrorTracker, Pool, TenantId, TenantSubmission};
use btwc_syndrome::{Correction, PackedBits, RoundHistory, SyndromeBatch};
use btwc_telemetry::MetricsRegistry;

use crate::workload::{link_seed, machine_seed, Workload};

/// Per-qubit RNG stream base of btwc-sim's machine simulations
/// (`QUBIT_STREAM`, crate-private there): qubit `q` of a machine seeded
/// `s` draws from `SimRng::from_seed(s).fork(QUBIT_STREAM + q)`.
const QUBIT_STREAM: u64 = 4 << 40;
/// Stabilizer species the reference simulations track.
const TY: StabilizerType = StabilizerType::X;
/// Sticky-filter depth (the library default, used by both reference simulations).
const CLIQUE_ROUNDS: usize = 2;

/// Event counters of a run. Every field is deterministic in the seed
/// and the cycle count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Escalations raised (`offchip_requests`), failed or not.
    pub escalations: u64,
    /// Escalations committed with an off-chip correction.
    pub decoded: u64,
    /// Escalations degraded because transport gave up.
    pub transport_gave_up: u64,
    /// Escalations the farm rejected with `QueueFull`.
    pub queue_full: u64,
    /// Escalations the farm rejected with `DeadlineExceeded`.
    pub deadline: u64,
    /// Escalations whose response never came back.
    pub missing: u64,
    /// Data and measurement flips sampled.
    pub flips: u64,
    /// Shadow Clique decisions, summed over qubit-rounds.
    pub clique_quiet: u64,
    pub clique_trivial: u64,
    pub clique_complex: u64,
    /// Shadow frames round-tripped.
    pub frames: u64,
    /// Off-chip decode calls, windows decoded, and their detection events.
    pub decode_calls: u64,
    pub windows: u64,
    pub window_events: u64,
}

impl Counts {
    /// Escalations that ended `Degraded`, whatever the cause.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.transport_gave_up + self.queue_full + self.deadline + self.missing
    }
}

/// Host nanoseconds spent in each layer of a traced fleet.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    pub noise: u64,
    pub clique: u64,
    pub core: u64,
    pub bandwidth: u64,
    pub offchip: u64,
    pub commit: u64,
    /// Whole fleet cycles, noise sampling to the last correction.
    pub cycles: u64,
}

impl Spans {
    /// Sum of the layer self times; the layers never overlap.
    #[must_use]
    pub fn layers(&self) -> u64 {
        self.noise + self.clique + self.core + self.bandwidth + self.offchip + self.commit
    }
}

/// The fleet's state after a given number of cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub cycles: u64,
    pub counts: Counts,
    pub stats: Vec<MachineStats>,
    pub transport: Vec<TransportStats>,
    /// Per-qubit `DecoderStats`, summed over the fleet.
    pub decisions: DecoderStats,
}

/// Host-time and simulated samples of a run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Host ns per fleet cycle.
    pub cycle_ns: Vec<u64>,
    /// Host ns from the start of its cycle to its `complete`, one per escalation.
    pub escalation_ns: Vec<u64>,
    /// Simulated cycles from arrival to commit, one per decoded escalation
    /// up to the last checkpoint.
    pub escalation_cycles: Histogram,
    /// Farm queue depth after each service cycle, up to the last checkpoint.
    pub queue_depth: Histogram,
    /// Host ns per decoded window (traced fleets only).
    pub decode_ns: Vec<u64>,
}

/// Counts of small whole numbers, so that recording a run's simulated
/// samples takes constant memory.
#[derive(Debug, Default)]
pub struct Histogram(Vec<u64>);

impl Histogram {
    pub fn record(&mut self, value: u64) {
        let i = usize::try_from(value).unwrap_or(usize::MAX);
        if i >= self.0.len() {
            self.0.resize(i + 1, 0);
        }
        self.0[i] += 1;
    }

    /// Nearest-rank percentile of the recorded values (NaN when empty).
    #[must_use]
    pub fn percentile(&self, pct: f64) -> f64 {
        let total: u64 = self.0.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let rank = ((pct / 100.0 * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (value, &n) in self.0.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return value as f64;
            }
        }
        unreachable!("rank {rank} is at most the {total} values recorded")
    }
}

/// One machine of the fleet with its noise source and trackers.
struct Member {
    machine: BtwcMachine,
    rngs: Vec<SimRng>,
    trackers: Vec<ErrorTracker>,
    batch: SyndromeBatch,
    round: PackedBits,
    n_data: usize,
    n_anc: usize,
    p: f64,
    /// Inline off-chip decoder and its receive window (no farm).
    inline: Option<(Box<dyn ComplexDecoder + Send + Sync>, RoundHistory)>,
    /// Shadow Clique frontend (traced fleets only).
    shadow: Option<BatchFrontend>,
    /// Per-cycle off-chip demand up to the gate's cycle count.
    demand: Vec<usize>,
}

impl Member {
    /// Samples one round of noise for every qubit into `self.batch`;
    /// returns the number of flips drawn.
    fn sample_noise(&mut self) -> u64 {
        let mut flips = 0;
        for (q, (rng, tracker)) in self.rngs.iter_mut().zip(&mut self.trackers).enumerate() {
            for flip in SparseFlips::new(rng, self.n_data, self.p) {
                tracker.flip(flip);
                flips += 1;
            }
            self.round.copy_from(tracker.syndrome());
            for a in SparseFlips::new(rng, self.n_anc, self.p) {
                self.round.toggle(a);
                flips += 1;
            }
            self.batch.set_qubit_round(q, &self.round);
        }
        flips
    }
}

/// A workload's machines, their off-chip service, and what they measured.
pub struct Fleet {
    members: Vec<Member>,
    farm: Option<DecodeFarm>,
    /// Pool width the farm dispatches on (1 without a farm).
    pub pool_width: usize,
    pub cycles: u64,
    pub counts: Counts,
    pub samples: Samples,
    /// `Some` for a traced fleet.
    pub spans: Option<Spans>,
    /// Cycle counts to checkpoint at (the gate's, then the simulated
    /// metrics'), and what was taken.
    checkpoint_at: [u64; 2],
    pub checkpoints: Vec<Checkpoint>,
}

/// Elapsed host ns since `start`.
fn ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Fleet {
    /// Builds `workload`'s fleet for `seed`, checkpointing after its
    /// `gate_cycles` and `sim_cycles`. A farm dispatches on a pool of
    /// `pool_width` workers. A traced fleet times every layer.
    #[must_use]
    pub fn build(workload: &Workload, seed: u64, pool_width: usize, traced: bool) -> Fleet {
        let mut farm = workload.farm.map(|config| {
            let pool = Pool::new(pool_width);
            (pool.workers(), DecodeFarm::new(pool, config))
        });
        let pool_width = farm.as_ref().map_or(1, |(w, _)| *w);
        let mut members = Vec::with_capacity(workload.machines.len());
        for (i, spec) in workload.machines.iter().enumerate() {
            let code = SurfaceCode::new(spec.distance);
            let n_anc = code.num_ancillas(TY);
            let window_rounds = usize::from(spec.distance).max(4) * 4;
            let mut builder = BtwcMachine::builder(&code, TY, spec.qubits, spec.bandwidth)
                .clique_rounds(CLIQUE_ROUNDS)
                .backend(spec.backend);
            if let Some(rate) = spec.link_fault {
                builder = builder
                    .fault_model(LinkFaultModel::uniform(rate))
                    .link_seed(link_seed(seed, i));
            }
            let inline = match &mut farm {
                Some((_, farm)) => {
                    let backend = if traced { timed(spec.backend) } else { spec.backend };
                    farm.register_tenant(
                        &format!("tenant-{i}"),
                        &code,
                        TY,
                        &backend,
                        window_rounds,
                        &MetricsRegistry::new(),
                    );
                    None
                }
                None => {
                    Some((spec.backend.build(&code, TY), RoundHistory::new(n_anc, window_rounds)))
                }
            };
            let root = SimRng::from_seed(machine_seed(seed, i));
            members.push(Member {
                machine: builder.build(),
                rngs: (0..spec.qubits)
                    .map(|q| SimRng::from_seed(root.fork(QUBIT_STREAM + q as u64).seed()))
                    .collect(),
                trackers: (0..spec.qubits).map(|_| ErrorTracker::new(&code, TY)).collect(),
                batch: SyndromeBatch::new(spec.qubits, n_anc),
                round: PackedBits::new(n_anc),
                n_data: code.num_data_qubits(),
                n_anc,
                p: spec.p,
                inline,
                shadow: traced
                    .then(|| BatchFrontend::with_rounds(&code, TY, spec.qubits, CLIQUE_ROUNDS)),
                demand: Vec::new(),
            });
        }
        Fleet {
            members,
            farm: farm.map(|(_, farm)| farm),
            pool_width,
            cycles: 0,
            counts: Counts::default(),
            samples: Samples::default(),
            spans: traced.then(Spans::default),
            checkpoint_at: [workload.gate_cycles, workload.sim_cycles],
            checkpoints: Vec::new(),
        }
    }

    /// Per-cycle off-chip demand of machine `i`, up to the gate's cycle count.
    #[must_use]
    pub fn demand(&self, i: usize) -> &[usize] {
        &self.members[i].demand
    }

    /// Runs one lockstep fleet cycle.
    pub fn cycle(&mut self) {
        let traced = self.spans.is_some();
        let mut spans = self.spans.unwrap_or_default();
        let [gate_cycles, sim_cycles] = self.checkpoint_at;
        let recording = self.cycles < sim_cycles;
        let counts = &mut self.counts;
        let samples = &mut self.samples;
        let cycle_start = Instant::now();

        // Phase 1: noise, then every machine's cycle up to its off-chip decodes.
        let mut pendings: Vec<PendingCycle> = Vec::with_capacity(self.members.len());
        for m in &mut self.members {
            let t = Instant::now();
            counts.flips += m.sample_noise();
            if traced {
                spans.noise += ns(t);
            }
            if let Some(shadow) = &mut m.shadow {
                let t = Instant::now();
                let mut visited = 0u64;
                shadow.push_batch(&m.batch, |_, decision, _| {
                    visited += 1;
                    match decision {
                        CliqueDecision::AllZeros => counts.clique_quiet += 1,
                        CliqueDecision::Trivial(_) => counts.clique_trivial += 1,
                        CliqueDecision::Complex => counts.clique_complex += 1,
                    }
                });
                counts.clique_quiet += m.trackers.len() as u64 - visited;
                spans.clique += ns(t);
            }
            let t = Instant::now();
            let pending = m.machine.step_deferred(&m.batch);
            if traced {
                spans.core += ns(t);
                let t = Instant::now();
                for job in pending.jobs() {
                    let frame = job.request().encode_v2();
                    let parsed = DecodeRequest::decode_v2(&frame);
                    counts.frames += 1;
                    assert!(
                        parsed.as_ref() == Ok(job.request()),
                        "a v2 frame round trip changed the request"
                    );
                }
                spans.bandwidth += ns(t);
            }
            pendings.push(pending);
        }

        // Phase 2: off-chip resolution, one response vector per machine.
        let t = Instant::now();
        let responses: Vec<Vec<ServiceResponse>> = match &mut self.farm {
            Some(farm) => {
                let submissions: Vec<TenantSubmission<'_>> = pendings
                    .iter()
                    .enumerate()
                    .map(|(i, pending)| TenantSubmission {
                        tenant: TenantId(i),
                        jobs: pending.jobs(),
                    })
                    .collect();
                let responses = farm.service_cycle(&submissions);
                if traced {
                    spans.offchip += ns(t);
                    for call in drain_timed() {
                        counts.decode_calls += 1;
                        counts.windows += call.windows;
                        counts.window_events += call.events;
                        let per_window = call.ns / call.windows.max(1);
                        samples.decode_ns.extend((0..call.windows).map(|_| per_window));
                    }
                }
                if recording {
                    samples.queue_depth.record(farm.queue_depth());
                }
                responses
            }
            None => self
                .members
                .iter_mut()
                .zip(&pendings)
                .map(|(m, pending)| {
                    let Some((decoder, wire)) = &mut m.inline else { return Vec::new() };
                    pending
                        .jobs()
                        .iter()
                        .map(|job| {
                            let t = Instant::now();
                            job.request().replay_into(wire);
                            let correction = decoder.decode_stream_mut(wire);
                            if traced {
                                let took = ns(t);
                                spans.offchip += took;
                                samples.decode_ns.push(took);
                                counts.decode_calls += 1;
                                counts.windows += 1;
                                counts.window_events += wire.detection_event_count() as u64;
                            }
                            ServiceResponse::Decoded { correction, queue_delay_cycles: 0 }
                        })
                        .collect()
                })
                .collect(),
        };

        // Phase 3: fold the responses back and apply the corrections.
        for ((m, pending), responses) in self.members.iter_mut().zip(pendings).zip(responses) {
            let jobs = pending.jobs();
            counts.escalations += pending.offchip_requests() as u64;
            counts.transport_gave_up += (pending.offchip_requests() - jobs.len()) as u64;
            counts.missing += jobs.len().saturating_sub(responses.len()) as u64;
            for (job, response) in jobs.iter().zip(&responses) {
                match response {
                    ServiceResponse::Decoded { queue_delay_cycles, .. } => {
                        counts.decoded += 1;
                        if recording {
                            samples
                                .escalation_cycles
                                .record(job.latency_base() + queue_delay_cycles);
                        }
                    }
                    ServiceResponse::Rejected(RejectReason::QueueFull) => counts.queue_full += 1,
                    ServiceResponse::Rejected(RejectReason::DeadlineExceeded) => {
                        counts.deadline += 1;
                    }
                }
            }
            let t = Instant::now();
            let cycle = m.machine.complete(pending, responses);
            let completed = Instant::now();
            for (tracker, out) in m.trackers.iter_mut().zip(&cycle.outcomes) {
                if let Some(c) = out.correction() {
                    tracker.apply(c.qubits());
                }
            }
            if traced {
                spans.commit += ns(t);
            }
            if cycle.offchip_requests > 0 {
                let latency =
                    u64::try_from((completed - cycle_start).as_nanos()).unwrap_or(u64::MAX);
                samples.escalation_ns.extend((0..cycle.offchip_requests).map(|_| latency));
            }
            if self.cycles < gate_cycles {
                m.demand.push(cycle.offchip_requests);
            }
        }
        let took = ns(cycle_start);
        samples.cycle_ns.push(took);
        if traced {
            spans.cycles += took;
            self.spans = Some(spans);
        }
        self.cycles += 1;
        if self.checkpoint_at.contains(&self.cycles) && self.at(self.cycles).is_none() {
            self.checkpoints.push(self.checkpoint());
        }
    }

    /// The fleet's counters and machine statistics as of now.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        let mut decisions = DecoderStats::default();
        for m in &self.members {
            for q in 0..m.trackers.len() {
                let s = m.machine.decoder_stats(q);
                decisions.cycles += s.cycles;
                decisions.quiet += s.quiet;
                decisions.onchip += s.onchip;
                decisions.offchip += s.offchip;
            }
        }
        Checkpoint {
            cycles: self.cycles,
            counts: self.counts,
            stats: self.members.iter().map(|m| m.machine.stats()).collect(),
            transport: self.members.iter().map(|m| m.machine.transport_stats()).collect(),
            decisions,
        }
    }

    /// The checkpoint taken after `cycles` cycles, if any.
    #[must_use]
    pub fn at(&self, cycles: u64) -> Option<&Checkpoint> {
        self.checkpoints.iter().find(|c| c.cycles == cycles)
    }
}

/// One `decode_batch_mut` call inside the farm of a traced fleet.
struct TimedCall {
    ns: u64,
    windows: u64,
    events: u64,
}

/// Calls made by [`Timed`] decoders since the last [`drain_timed`].
/// Farm slots decode on pool workers, hence the lock.
static TIMED_CALLS: Mutex<Vec<TimedCall>> = Mutex::new(Vec::new());

fn drain_timed() -> Vec<TimedCall> {
    std::mem::take(&mut *TIMED_CALLS.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
}

/// A backend that times each batched decode the farm makes on it and
/// otherwise forwards to the real decoder, so outcomes are unchanged.
struct Timed(Box<dyn ComplexDecoder + Send + Sync>);

impl ComplexDecoder for Timed {
    fn decode_window(&self, window: &RoundHistory) -> Correction {
        self.0.decode_window(window)
    }

    fn decode_window_mut(&mut self, window: &RoundHistory) -> Correction {
        self.0.decode_window_mut(window)
    }

    fn decode_stream_mut(&mut self, window: &RoundHistory) -> Correction {
        self.0.decode_stream_mut(window)
    }

    fn decode_batch_mut(&mut self, windows: &[&RoundHistory]) -> Vec<Correction> {
        let start = Instant::now();
        let out = self.0.decode_batch_mut(windows);
        let call = TimedCall {
            ns: ns(start),
            windows: windows.len() as u64,
            events: windows.iter().map(|w| w.detection_event_count() as u64).sum(),
        };
        TIMED_CALLS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(call);
        out
    }

    fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        self.0.attach_telemetry(registry);
    }
}

/// `backend` wrapped in [`Timed`]. Registered under its own name, so
/// the farm groups tenants into the same slots as the bare backend.
fn timed(backend: DecoderBackend) -> DecoderBackend {
    fn sparse(code: &SurfaceCode, ty: StabilizerType) -> Box<dyn ComplexDecoder + Send + Sync> {
        Box::new(Timed(DecoderBackend::SparseBlossom.build(code, ty)))
    }
    fn union_find(code: &SurfaceCode, ty: StabilizerType) -> Box<dyn ComplexDecoder + Send + Sync> {
        Box::new(Timed(DecoderBackend::UnionFind.build(code, ty)))
    }
    match backend {
        DecoderBackend::SparseBlossom => {
            DecoderBackend::Custom { name: "timed-sparse-blossom", build: sparse }
        }
        DecoderBackend::UnionFind => {
            DecoderBackend::Custom { name: "timed-union-find", build: union_find }
        }
        other => other,
    }
}
