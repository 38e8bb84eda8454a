//! Fuzz cases that once broke the oracle, replayed whole through
//! `drams_fuzz::run_case`. Each file under this directory is one case as
//! the generator produced it, so the replay does not depend on today's
//! generator.

use drams_fuzz::{run_case, FuzzCase};

mod seed_128;
mod seed_674;
mod seed_815;
mod seed_92;

fn replays_clean(case: FuzzCase) {
    let outcome = run_case(&case);
    assert!(
        outcome.attacks_injected > 0,
        "{}: no attack ran",
        outcome.name
    );
    assert_eq!(outcome.violations, Vec::<String>::new(), "{}", outcome.name);
}

/// Seeds 92, 128, 674 and 815 are `drop-log` campaigns in which one
/// request lost every observation mid-sequence; the monitor contract's
/// gap rule times each of them out.
#[test]
fn seed_92_drop_log_under_load() {
    replays_clean(seed_92::case());
}

#[test]
fn seed_128_drop_log() {
    replays_clean(seed_128::case());
}

#[test]
fn seed_674_drop_log_with_a_chain_crash() {
    replays_clean(seed_674::case());
}

#[test]
fn seed_815_drop_log_under_load() {
    replays_clean(seed_815::case());
}
