//! `drams-node` — host one Figure-1 service endpoint as its own
//! process.
//!
//! ```text
//! drams-node --role pdp --cloud 2 --listen 127.0.0.1:7702
//! drams-node --role li --tenant 1 --listen 127.0.0.1:0
//! drams-node --role chain --listen 127.0.0.1:7704
//! ```
//!
//! The process binds the listen address, prints
//! `drams-node <role> listening on <addr>` (the port is the bound one,
//! so `:0` works), and serves frames addressed to its role until it is
//! killed. Frames for any other role, corrupt frames and sequence
//! regressions drop the connection without an acknowledgement.

#![forbid(unsafe_code)]

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;

use drams_faas::transport::WireRole;
use drams_net::endpoint::serve;

fn usage() -> ExitCode {
    eprintln!(
        "usage: drams-node --role <pep|pdp|li|chain|analyser> \
         [--cloud N] [--tenant N] --listen <addr>"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut role_name: Option<String> = None;
    let mut param: u32 = 0;
    let mut listen: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--role" => role_name = Some(value.clone()),
            // `--cloud` names the PDP slot, `--tenant` the LI index;
            // both land in the role's instance parameter.
            "--cloud" | "--tenant" => match value.parse() {
                Ok(v) => param = v,
                Err(_) => return usage(),
            },
            "--listen" => listen = Some(value.clone()),
            _ => return usage(),
        }
    }
    let role = match role_name.as_deref() {
        Some("pep") => WireRole::Pep,
        Some("pdp") => WireRole::Pdp { slot: param },
        Some("li") => WireRole::Li { index: param },
        Some("chain") => WireRole::Chain,
        Some("analyser") => WireRole::Analyser,
        _ => return usage(),
    };
    let Some(listen) = listen else {
        return usage();
    };
    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("drams-node: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = listener.local_addr().expect("bound address");
    // The banner doubles as the readiness signal: it is printed only
    // after the bind succeeded, and provisioners parse the address off
    // its end.
    println!("drams-node {role} listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    static STOP: AtomicBool = AtomicBool::new(false);
    serve(&listener, Some(role), &STOP);
    ExitCode::SUCCESS
}
