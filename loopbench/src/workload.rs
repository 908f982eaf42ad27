//! The benchmark's workloads: paper operating points of the closed loop.
//!
//! Every workload is a fleet of machines stepped in lockstep. A fleet
//! without a farm resolves escalations inline (the `BtwcMachine::step`
//! reference path); a fleet with a farm submits them to one shared
//! `DecodeFarm` per cycle (the `machine_farm_trace` reference path).

use btwc_core::{DecoderBackend, LinkFaultModel};
use btwc_noise::SimRng;
use btwc_sim::{FarmConfig, FarmTenant, LifetimeConfig};

/// One machine of a workload fleet.
#[derive(Debug, Clone, Copy)]
pub struct MachineSpec {
    pub distance: u16,
    pub p: f64,
    pub qubits: usize,
    pub bandwidth: usize,
    pub backend: DecoderBackend,
    /// Per-class fault probability of a `LinkFaultModel::uniform` link.
    pub link_fault: Option<f64>,
}

/// A named workload: the fleet, how it is served, and how long it runs.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub machines: Vec<MachineSpec>,
    /// `Some` routes every escalation through one shared farm.
    pub farm: Option<FarmConfig>,
    /// Cycles after which the simulated metrics are read. They are
    /// exact for a seed because this count never depends on host speed.
    pub sim_cycles: u64,
    /// Cycles compared against the library's reference simulation.
    pub gate_cycles: u64,
    /// Cycles per timing block; `rounds_per_s` is read over blocks.
    /// `sim_cycles` is a multiple, so the simulated metrics and peak
    /// memory are read at a block boundary.
    pub block_cycles: u64,
}

pub const NAMES: [&str; 3] = ["quiet_d9", "burst_d17", "fleet_farm"];

/// The workload called `name`, or `None` if there is none.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    let sparse = DecoderBackend::SparseBlossom;
    let inline = |distance, p, bandwidth| MachineSpec {
        distance,
        p,
        qubits: 64,
        bandwidth,
        backend: sparse,
        link_fault: None,
    };
    let w = match name {
        "quiet_d9" => Workload {
            name: "quiet_d9",
            machines: vec![inline(9, 1e-3, 1)],
            farm: None,
            sim_cycles: 600_000,
            gate_cycles: 20_000,
            block_cycles: 4_000,
        },
        "burst_d17" => Workload {
            name: "burst_d17",
            machines: vec![inline(17, 5e-3, 18)],
            farm: None,
            sim_cycles: 12_000,
            gate_cycles: 200,
            block_cycles: 100,
        },
        "fleet_farm" => Workload {
            name: "fleet_farm",
            machines: (0..8)
                .map(|i| MachineSpec {
                    distance: if i % 2 == 0 { 9 } else { 13 },
                    p: 2e-3,
                    qubits: 16,
                    bandwidth: 2,
                    // Two tenants per (backend, distance) slot shape.
                    backend: if i % 4 < 2 { sparse } else { DecoderBackend::UnionFind },
                    link_fault: (i >= 4).then_some(0.05),
                })
                .collect(),
            farm: Some(FarmConfig::bounded(16, 2)),
            sim_cycles: 24_000,
            gate_cycles: 2_000,
            block_cycles: 300,
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// Logical qubits across the fleet (rounds per fleet cycle).
    #[must_use]
    pub fn qubits(&self) -> usize {
        self.machines.iter().map(|m| m.qubits).sum()
    }

    /// Shrinks every cycle count to `cycles` (the smoke mode).
    pub fn shrink(&mut self, cycles: u64) {
        self.sim_cycles = self.sim_cycles.min(cycles);
        self.gate_cycles = self.gate_cycles.min(cycles);
        self.block_cycles = self.block_cycles.min(cycles.div_ceil(4)).max(1);
    }
}

/// Noise seed of machine `index` under the run seed.
#[must_use]
pub fn machine_seed(seed: u64, index: usize) -> u64 {
    SimRng::from_seed(seed).fork(index as u64).seed()
}

/// Link-fault seed of machine `index` under the run seed.
#[must_use]
pub fn link_seed(seed: u64, index: usize) -> u64 {
    SimRng::from_seed(seed).fork((1 << 20) + index as u64).seed()
}

impl MachineSpec {
    /// The library's lifetime config for this machine.
    #[must_use]
    pub fn lifetime(&self, seed: u64, cycles: u64) -> LifetimeConfig {
        LifetimeConfig::new(self.distance, self.p)
            .with_backend(self.backend)
            .with_cycles(cycles)
            .with_seed(seed)
    }

    /// The same machine as a `machine_farm_trace` tenant.
    #[must_use]
    pub fn tenant(&self, run_seed: u64, index: usize, cycles: u64) -> FarmTenant {
        let tenant = FarmTenant::new(
            self.lifetime(machine_seed(run_seed, index), cycles),
            self.qubits,
            self.bandwidth,
        );
        match self.link_fault {
            Some(rate) => {
                tenant.with_fault(LinkFaultModel::uniform(rate), link_seed(run_seed, index))
            }
            None => tenant,
        }
    }
}
