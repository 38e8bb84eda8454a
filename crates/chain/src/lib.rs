//! Private smart-contract proof-of-work blockchain for DRAMS.
//!
//! The paper stores access logs and runs monitoring checks on a
//! smart-contract blockchain deployed as a *private* chain whose PoW
//! parameters are tunable (§III). This crate is that substrate, built from
//! scratch:
//!
//! * [`tx`] — Schnorr-signed contract-invocation transactions.
//! * [`block`] — blocks, Merkle transaction roots and real PoW mining.
//! * [`chain`] — validation, heaviest-chain fork choice with reorgs, and
//!   the ±1-bit difficulty retarget rule.
//! * [`mempool`] — FIFO pending pool.
//! * [`contract`] — the deterministic smart-contract runtime (journaled
//!   storage, event log) hosting the DRAMS monitor contract.
//! * [`node`] — a full node gluing all of the above.
//! * [`fork`] — attacker fork analysis (Nakamoto analytic + Monte Carlo)
//!   quantifying the paper's "lightweight PoW ⇒ weak integrity" claim.
//!
//! # Example
//!
//! ```
//! use drams_chain::{node::Node, chain::ChainConfig, contract::KvStoreContract};
//! use drams_crypto::schnorr::Keypair;
//!
//! # fn main() -> Result<(), drams_chain::error::ChainError> {
//! let mut node = Node::new(ChainConfig { initial_difficulty_bits: 4, ..Default::default() });
//! node.register_contract(Box::new(KvStoreContract));
//! let li = Keypair::from_seed(b"logging-interface");
//! let tx = node.submit_call(&li, "kvstore", "put", b"encrypted log".to_vec())?;
//! node.mine_block(1_000)?;
//! assert_eq!(node.chain().confirmations(&tx), Some(1));
//! # Ok(())
//! # }
//! ```
//!
//! Durability: the node is storage-agnostic, but accepts a write-ahead
//! journal ([`node::NodeJournal`]) recording each input once — every
//! accepted transaction, every block mined (as the ids it took from the
//! pool) and every block received; `drams_store::persist` implements it
//! over a segmented WAL and rebuilds a crashed node — chain, contract
//! state *and* mempool — by replay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod chain;
pub mod contract;
pub mod error;
pub mod fork;
pub mod mempool;
pub mod node;
pub mod tx;

pub use block::{Block, BlockHash, BlockHeader};
pub use chain::{Blockchain, ChainConfig, ImportOutcome};
pub use contract::{Event, ExecutionContext, SmartContract, Storage};
pub use error::ChainError;
pub use node::Node;
pub use tx::{Transaction, TxId};
