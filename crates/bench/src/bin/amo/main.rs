//! `amo` — the one command-line front door to the simulator; `amo help`
//! lists the subcommands.
//!
//! Every subcommand declares its grammar as a [`Command`]; the parser
//! checks the command line against it and `amo help` prints it. A
//! malformed command line is one line `amo <sub>: <what>` plus that
//! subcommand's usage on stderr and exit status 2. Status 1 is a run
//! that finished with a negative verdict (violations, a fault plan that
//! did not reproduce, failed campaign cells) or a file that could not
//! be read, decoded or written.

mod ablations;
mod campaign;
mod chaos;
mod experiment;
mod verify;

use amo_bench::cli::{Args, Command};
use amo_campaign::ResultCache;
use amo_types::SystemConfig;

/// Why a subcommand stopped before producing its result.
pub(crate) enum Stop {
    /// The command line is malformed: exit 2, with the usage text.
    Usage(String),
    /// The run could not be carried out: exit 1.
    Failed(String),
}

/// `?` on the parser's and the tag codecs' `String` errors reports a
/// malformed command line.
impl From<String> for Stop {
    fn from(msg: String) -> Self {
        Stop::Usage(msg)
    }
}

/// The cache `[--no-cache] [--cache-dir DIR]` select: none, the given
/// directory, or the default `target/campaign-cache`.
pub(crate) fn cache(args: &Args) -> Option<ResultCache> {
    if args.has("no-cache") {
        return None;
    }
    let dir = args
        .get("cache-dir")
        .map_or_else(ResultCache::default_dir, Into::into);
    Some(ResultCache::new(dir))
}

/// `--procs N` for a machine of `per_node` processors per node: the
/// library's own geometry check, worded in terms of the flag.
pub(crate) fn procs(args: &Args, default: u16, per_node: u16) -> Result<u16, String> {
    let machine = SystemConfig {
        num_procs: args.num("procs", default)?,
        procs_per_node: per_node,
        ..SystemConfig::default()
    };
    machine.check().map_err(|e| format!("--procs: {e}"))?;
    Ok(machine.num_procs)
}

/// Read an input document.
pub(crate) fn read(path: &str) -> Result<String, Stop> {
    std::fs::read_to_string(path).map_err(|e| Stop::Failed(format!("cannot read {path}: {e}")))
}

/// Write an output document.
pub(crate) fn write(path: &str, doc: &str) -> Result<(), Stop> {
    std::fs::write(path, doc).map_err(|e| Stop::Failed(format!("cannot write {path}: {e}")))
}

/// Send a subcommand's main document to `--out FILE`, or to stdout.
pub(crate) fn emit(out: Option<&str>, doc: &str) -> Result<(), Stop> {
    match out {
        None => print!("{doc}"),
        Some(path) => {
            write(path, doc)?;
            eprintln!("wrote {path}");
        }
    }
    Ok(())
}

type Run = fn(&Args) -> Result<i32, Stop>;

const COMMANDS: &[(Command, Run)] = &[
    (campaign::TABLES, campaign::tables),
    (campaign::CAMPAIGN, campaign::campaign),
    (experiment::BARRIER, experiment::barrier),
    (experiment::LOCK, experiment::lock),
    (ablations::ABLATIONS, ablations::run),
    (chaos::CHAOS, chaos::chaos),
    (chaos::CHAOS_SEARCH, chaos::chaos_search),
    (verify::VERIFY, verify::run),
];

fn usage() -> String {
    let mut out = String::from("usage: amo <subcommand> [arguments]; `amo help` prints this\n");
    for (cmd, _) in COMMANDS {
        out.push('\n');
        out.push_str(&cmd.usage());
    }
    out
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_some_and(|a| a == "help") {
        print!("{}", usage());
        return;
    }
    // A name is one word (`chaos`) or two (`experiment barrier`).
    let found = COMMANDS.iter().find_map(|(cmd, run)| {
        let words = cmd.name.split(' ').count();
        let named = raw.len() >= words && raw[..words].join(" ") == cmd.name;
        named.then(|| (cmd, run, &raw[words..]))
    });
    let Some((cmd, run, rest)) = found else {
        match raw.len() {
            0 => eprintln!("amo: a subcommand is required"),
            n => eprintln!("amo: unknown subcommand '{}'", raw[..n.min(2)].join(" ")),
        }
        eprint!("{}", usage());
        std::process::exit(2);
    };
    let outcome = cmd.parse(rest).map_err(Stop::Usage);
    let status = match outcome.and_then(|args| run(&args)) {
        Ok(status) => status,
        Err(Stop::Usage(msg)) => {
            eprintln!("amo {}: {msg}", cmd.name);
            eprint!("usage:\n{}", cmd.usage());
            2
        }
        Err(Stop::Failed(msg)) => {
            eprintln!("amo {}: {msg}", cmd.name);
            1
        }
    };
    std::process::exit(status);
}
