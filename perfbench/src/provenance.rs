//! What a result was measured on: host, build and configuration.

use std::path::Path;

use crate::workload::{Workload, GRID_LEN};

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The host's (steal, total) jiffies over all CPUs from `/proc/stat`:
/// time the hypervisor ran other guests while this one's vCPUs were
/// ready, against all accounted time.
pub fn steal_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user and nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// The steal share between two [`steal_jiffies`] readings (0 when either
/// is missing or no time passed).
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

pub struct Provenance {
    fields: Vec<(&'static str, String)>,
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the program's sources (path and bytes, in path order),
/// identifying the code measured where no git metadata exists.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "src"] {
        walk(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "perf/tuning.json"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Collects the provenance of a run of `workload` with `connections`
/// closed loops.
pub fn collect(workload: Workload, seed: u64, connections: usize) -> Provenance {
    let nproc = nproc();
    let threads = rayon::current_num_threads();
    let (mode, grain) = slcs_semilocal::auto_plan(GRID_LEN, GRID_LEN, threads);
    let label = |n: usize| if n > nproc { "oversubscribed" } else { "within_nproc" };
    // Only the checkout's own history names its commit; an exported tree
    // has none (the source digest identifies it instead).
    let commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    let fields = vec![
        ("workload", quoted(workload.name())),
        ("seed", seed.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", quoted(&cpu_model())),
        ("simd_support", quoted(slcs_semilocal::simd_support())),
        ("commit", quoted(&commit)),
        ("source_digest", quoted(&source_digest(Path::new(".")))),
        (
            "rustc",
            quoted(&command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("allocator_installed", slcs_alloc::installed().to_string()),
        ("comb_cold_auto_plan", quoted(&format!("{}:grain={grain}", mode.token()))),
        ("engine_threads", threads.to_string()),
        ("engine_threads_label", quoted(label(threads))),
        ("connections", connections.to_string()),
        ("connections_label", quoted(label(connections))),
    ];
    Provenance { fields }
}

impl Provenance {
    pub fn to_json(&self) -> String {
        let body =
            self.fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect::<Vec<_>>().join(", ");
        format!("{{{body}}}")
    }
}
