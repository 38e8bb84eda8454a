//! Multi-node gossip simulation in virtual time (experiment E2).
//!
//! Models a private chain deployment across federation tenants: each node
//! mines with a share of the total hashrate (block discovery is the usual
//! memoryless exponential process) and broadcasts blocks over links with
//! configurable latency. The simulation measures stale-block rate, reorg
//! frequency and convergence — the network-level behaviour behind the
//! paper's §III observation that a small private network with lightweight
//! PoW gives only weak integrity. It sits beside E2 because it drives
//! the chain through the simulator's [`EventQueue`], and the chain
//! itself depends on nothing but `drams-crypto`.

use drams_chain::block::{Block, BlockHash};
use drams_chain::chain::{Blockchain, ChainConfig, ImportOutcome};
use drams_chain::error::ChainError;
use drams_faas::des::EventQueue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Configuration of the gossip simulation.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Relative hashrate per node (normalised internally).
    pub hashrates: Vec<f64>,
    /// Mean network-wide block interval in virtual milliseconds.
    pub mean_block_interval_ms: f64,
    /// One-way link latency between any two nodes, in virtual ms.
    pub link_latency_ms: f64,
    /// Virtual time horizon.
    pub horizon_ms: u64,
    /// RNG seed (the simulation is fully deterministic given a seed).
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            hashrates: vec![1.0; 4],
            mean_block_interval_ms: 1_000.0,
            link_latency_ms: 50.0,
            horizon_ms: 120_000,
            seed: 7,
        }
    }
}

/// Results of a gossip simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetStats {
    /// Blocks mined across all nodes.
    pub blocks_mined: u64,
    /// Blocks that did not make the final main chain (stale/orphaned).
    pub stale_blocks: u64,
    /// Number of reorg events observed across all nodes.
    pub reorgs: u64,
    /// Deepest single reorg.
    pub max_reorg_depth: u64,
    /// Final main-chain height (consensus node 0).
    pub final_height: u64,
    /// Whether all nodes ended on the same tip.
    pub converged: bool,
}

impl NetStats {
    /// Fraction of mined blocks that went stale.
    #[must_use]
    pub fn stale_rate(&self) -> f64 {
        if self.blocks_mined == 0 {
            0.0
        } else {
            self.stale_blocks as f64 / self.blocks_mined as f64
        }
    }
}

#[derive(Debug)]
enum SimEvent {
    Mine { node: usize },
    Deliver { node: usize, block: Block },
}

/// Runs the gossip simulation.
///
/// Mining is modelled analytically (difficulty-0 blocks, exponential
/// discovery times) because virtual time and wall-clock hashing cannot
/// meaningfully mix; the real hashing cost of PoW is measured separately
/// by the E1/E2 benches.
///
/// # Panics
///
/// Panics if `hashrates` is empty or sums to zero.
#[must_use]
pub fn simulate(config: &NetConfig) -> NetStats {
    let n = config.hashrates.len();
    assert!(n > 0, "need at least one node");
    let total_rate: f64 = config.hashrates.iter().sum();
    assert!(total_rate > 0.0, "total hashrate must be positive");

    let mut rng = StdRng::seed_from_u64(config.seed);
    let chain_config = ChainConfig {
        initial_difficulty_bits: 0,
        retarget_interval: 0,
        verify_signatures: false,
        ..ChainConfig::default()
    };
    let mut chains: Vec<Blockchain> = (0..n)
        .map(|_| Blockchain::new(chain_config.clone()))
        .collect();
    // Orphan buffers per node: parent hash -> blocks waiting for it.
    let mut orphans: Vec<HashMap<BlockHash, Vec<Block>>> = (0..n).map(|_| HashMap::new()).collect();

    let mut queue: EventQueue<SimEvent> = EventQueue::new();

    let sample_exp = |rng: &mut StdRng, rate_per_ms: f64| -> u64 {
        let u: f64 = rng.gen_range(1e-12..1.0);
        (-u.ln() / rate_per_ms).ceil() as u64
    };

    // Initial mining events.
    for (i, h) in config.hashrates.iter().enumerate() {
        let rate = (h / total_rate) / config.mean_block_interval_ms;
        let dt = sample_exp(&mut rng, rate);
        queue.schedule_at(dt, SimEvent::Mine { node: i });
    }

    let mut stats = NetStats {
        blocks_mined: 0,
        stale_blocks: 0,
        reorgs: 0,
        max_reorg_depth: 0,
        final_height: 0,
        converged: false,
    };

    while let Some((now, event)) = queue.pop_before(config.horizon_ms) {
        match event {
            SimEvent::Mine { node } => {
                let tip = chains[node].tip_hash();
                let height = chains[node].tip_header().height + 1;
                let block = Block::mine(tip, height, Vec::new(), now, 0);
                stats.blocks_mined += 1;
                for peer in 0..n {
                    if peer != node {
                        queue.schedule_at(
                            now + config.link_latency_ms as u64,
                            SimEvent::Deliver {
                                node: peer,
                                block: block.clone(),
                            },
                        );
                    }
                }
                // A miner imports its own block like any other delivery;
                // it extends the local tip, so it is never orphaned.
                deliver(&mut chains[node], &mut orphans[node], block, &mut stats);
                let rate = (config.hashrates[node] / total_rate) / config.mean_block_interval_ms;
                let dt = sample_exp(&mut rng, rate);
                queue.schedule_at(now + dt, SimEvent::Mine { node });
            }
            SimEvent::Deliver { node, block } => {
                deliver(&mut chains[node], &mut orphans[node], block, &mut stats);
            }
        }
    }

    stats.final_height = chains[0].tip_header().height;
    stats.converged = chains.iter().all(|c| c.tip_hash() == chains[0].tip_hash());
    // Stale blocks: mined blocks minus those on the consensus main chain,
    // which holds one block per height above genesis.
    stats.stale_blocks = stats.blocks_mined.saturating_sub(stats.final_height);
    stats
}

fn deliver(
    chain: &mut Blockchain,
    orphans: &mut HashMap<BlockHash, Vec<Block>>,
    block: Block,
    stats: &mut NetStats,
) {
    match chain.import(block.clone()) {
        Ok(ImportOutcome::Reorg { depth }) => {
            stats.reorgs += 1;
            stats.max_reorg_depth = stats.max_reorg_depth.max(depth);
        }
        Ok(_) => {}
        Err(ChainError::UnknownParent) => {
            orphans.entry(block.header.parent).or_default().push(block);
            return;
        }
        Err(e) => panic!("unexpected import failure in simulation: {e}"),
    }
    // Importing may unblock buffered children (recursively).
    let hash = block.hash();
    if let Some(children) = orphans.remove(&hash) {
        for child in children {
            deliver(chain, orphans, child, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let config = NetConfig {
            horizon_ms: 30_000,
            ..NetConfig::default()
        };
        let a = simulate(&config);
        let b = simulate(&config);
        assert_eq!(a, b);
    }

    #[test]
    fn nodes_converge_with_low_latency() {
        let stats = simulate(&NetConfig {
            hashrates: vec![1.0, 1.0, 1.0],
            mean_block_interval_ms: 2_000.0,
            link_latency_ms: 10.0,
            horizon_ms: 100_000,
            seed: 42,
        });
        assert!(stats.converged, "stats: {stats:?}");
        assert!(stats.blocks_mined > 10);
        assert!(
            stats.stale_rate() < 0.2,
            "stale rate {}",
            stats.stale_rate()
        );
    }

    #[test]
    fn high_latency_increases_staleness() {
        let low = simulate(&NetConfig {
            hashrates: vec![1.0; 4],
            mean_block_interval_ms: 500.0,
            link_latency_ms: 5.0,
            horizon_ms: 200_000,
            seed: 11,
        });
        let high = simulate(&NetConfig {
            hashrates: vec![1.0; 4],
            mean_block_interval_ms: 500.0,
            link_latency_ms: 400.0,
            horizon_ms: 200_000,
            seed: 11,
        });
        assert!(
            high.stale_rate() > low.stale_rate(),
            "high-latency stale rate {} should exceed low-latency {}",
            high.stale_rate(),
            low.stale_rate()
        );
    }

    #[test]
    fn single_node_never_goes_stale() {
        let stats = simulate(&NetConfig {
            hashrates: vec![1.0],
            mean_block_interval_ms: 200.0,
            link_latency_ms: 0.0,
            horizon_ms: 50_000,
            seed: 3,
        });
        assert_eq!(stats.stale_blocks, 0);
        assert_eq!(stats.reorgs, 0);
        assert!(stats.converged);
    }

    #[test]
    #[should_panic(expected = "need at least one node")]
    fn empty_hashrates_panics() {
        let _ = simulate(&NetConfig {
            hashrates: vec![],
            ..NetConfig::default()
        });
    }
}
