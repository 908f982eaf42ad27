//! The correctness gate: the composed loop must be the library's loop.
//!
//! Off the clock, each run replays its first `gate_cycles` cycles
//! through the library's reference simulation for the same seed —
//! `machine_offchip_trace` (inline workloads) or `machine_farm_trace`
//! (farm workloads) — and compares machine stats, transport stats and
//! the per-cycle demand trace. A traced run must also leave the loop
//! unchanged, and its shadow Clique counts must equal the machines'
//! own decision counts.

use btwc_core::TransportStats;
use btwc_sim::{machine_farm_trace, machine_offchip_trace, Pool};

use crate::fleet::{Checkpoint, Counts, Fleet};
use crate::host;
use crate::workload::{machine_seed, Workload};

fn mismatch<T: std::fmt::Debug + PartialEq>(
    what: &str,
    ours: &T,
    reference: &T,
) -> Result<(), String> {
    if ours == reference {
        Ok(())
    } else {
        Err(format!("{what}: loop {ours:?} != reference {reference:?}"))
    }
}

fn checkpoint(fleet: &Fleet, cycles: u64) -> Result<&Checkpoint, String> {
    fleet.at(cycles).ok_or_else(|| format!("the loop never reached cycle {cycles}"))
}

/// Compares `fleet`'s first `workload.gate_cycles` cycles with the
/// reference simulation, and checks that every escalation is accounted for.
pub fn reference(workload: &Workload, seed: u64, fleet: &Fleet) -> Result<(), String> {
    let cycles = workload.gate_cycles;
    let ours = checkpoint(fleet, cycles)?;
    let len = usize::try_from(cycles).map_err(|e| e.to_string())?;
    match workload.farm {
        None => {
            // Inline workloads run on a perfect link, which observes no
            // transport events.
            for (i, spec) in workload.machines.iter().enumerate() {
                let cfg = spec.lifetime(machine_seed(seed, i), cycles);
                let (stats, trace) = machine_offchip_trace(&cfg, spec.qubits, spec.bandwidth);
                mismatch(&format!("machine {i} stats"), &ours.stats[i], &stats)?;
                mismatch(
                    &format!("machine {i} transport"),
                    &ours.transport[i],
                    &TransportStats::default(),
                )?;
                mismatch(
                    &format!("machine {i} demand"),
                    &&fleet.demand(i)[..len],
                    &trace.as_slice(),
                )?;
            }
        }
        Some(config) => {
            let tenants: Vec<_> = workload
                .machines
                .iter()
                .enumerate()
                .map(|(i, spec)| spec.tenant(seed, i, cycles))
                .collect();
            // The other pool width than the loop's, so that a width that
            // changed outcomes would fail the gate.
            let width = if fleet.pool_width == 1 { host::nproc() } else { 1 };
            let run = machine_farm_trace(&tenants, config, Pool::new(width));
            for (i, tenant) in run.tenants.iter().enumerate() {
                mismatch(&format!("tenant {i} stats"), &ours.stats[i], &tenant.stats)?;
                mismatch(&format!("tenant {i} transport"), &ours.transport[i], &tenant.transport)?;
                mismatch(
                    &format!("tenant {i} demand"),
                    &&fleet.demand(i)[..len],
                    &tenant.trace.as_slice(),
                )?;
            }
        }
    }
    for cp in &fleet.checkpoints {
        accounting(cp)?;
    }
    Ok(())
}

/// Every escalation ends decoded or degraded for a counted cause, and
/// the counts agree with what the machines report.
fn accounting(cp: &Checkpoint) -> Result<(), String> {
    let c = &cp.counts;
    mismatch("escalations resolved", &(c.decoded + c.failed()), &c.escalations)?;
    let raised: u64 = cp.stats.iter().map(|s| s.offchip_requests).sum();
    mismatch("escalations raised", &c.escalations, &raised)?;
    let degraded: u64 = cp.transport.iter().map(|t| t.degraded_decodes).sum();
    mismatch("degraded escalations", &c.failed(), &degraded)
}

/// A traced fleet must run the same loop as an untraced one, and its
/// shadow Clique decisions must match the machines' `DecoderStats`.
pub fn traced(untraced: &Fleet, traced: &Fleet, cycles: u64) -> Result<(), String> {
    let (a, b) = (checkpoint(untraced, cycles)?, checkpoint(traced, cycles)?);
    mismatch("traced machine stats", &b.stats, &a.stats)?;
    mismatch("traced transport", &b.transport, &a.transport)?;
    mismatch("traced decisions", &b.decisions, &a.decisions)?;
    let loop_counts = |c: &Counts| {
        [
            c.escalations,
            c.decoded,
            c.transport_gave_up,
            c.queue_full,
            c.deadline,
            c.missing,
            c.flips,
        ]
    };
    mismatch("traced counts", &loop_counts(&b.counts), &loop_counts(&a.counts))?;
    let d = &b.decisions;
    mismatch(
        "clique quiet/trivial/complex vs DecoderStats quiet/onchip/offchip",
        &[b.counts.clique_quiet, b.counts.clique_trivial, b.counts.clique_complex],
        &[d.quiet, d.onchip, d.offchip],
    )
}
