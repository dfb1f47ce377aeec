//! The effective configuration a run resolved to, read from outside the
//! program through its public functions and the environment.

use crate::json::Obj;

/// Environment knobs the library crates read. Any other `FX_*` variable
/// that happens to be set is reported too.
const KNOWN_ENV: &[&str] = &[
    "FX_GEMM_KC",
    "FX_GEMM_NC",
    "FX_MEMPLAN",
    "FX_SIMD",
    "FX_THREADS",
    "FX_VALIDATE",
    "FX_VNNI",
];

/// Machine parallelism as the standard library reports it.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The snapshot as a JSON object.
pub fn snapshot(workload: &str, seed: u64, registry_workers: Option<usize>) -> String {
    let exec = fx_core::ExecConfig::from_env();
    Obj::new()
        .str("workload", workload)
        .int("seed", seed)
        .str("git_revision", &git_revision())
        .int("available_parallelism", available_parallelism() as u64)
        .int("kernel_threads", fx_tensor::num_threads() as u64)
        .int("executor_threads", exec.threads as u64)
        .bool("memory_planning", exec.memory_planning)
        .bool("simd_available", fx_tensor::simd_available())
        .bool("simd_enabled", fx_tensor::simd_enabled())
        .raw("vnni", vnni())
        .raw("env", env())
        .raw(
            "registry_workers",
            registry_workers.map_or("null".to_string(), |n| n.to_string()),
        )
        .finish()
}

fn env() -> String {
    let mut names: Vec<String> = KNOWN_ENV.iter().map(|s| s.to_string()).collect();
    for (k, _) in std::env::vars_os() {
        if let Some(k) = k.to_str() {
            if k.starts_with("FX_") && !names.iter().any(|n| n == k) {
                names.push(k.to_string());
            }
        }
    }
    names.sort();
    names
        .iter()
        .fold(Obj::new(), |o, n| {
            let v = std::env::var(n).unwrap_or_else(|_| "unset".to_string());
            o.str(n, &v)
        })
        .finish()
}

#[cfg(target_arch = "x86_64")]
fn vnni() -> String {
    Obj::new()
        .bool(
            "avx512vnni",
            std::arch::is_x86_feature_detected!("avx512vnni"),
        )
        .bool("avx512vl", std::arch::is_x86_feature_detected!("avx512vl"))
        .bool("avxvnni", std::arch::is_x86_feature_detected!("avxvnni"))
        .finish()
}

#[cfg(not(target_arch = "x86_64"))]
fn vnni() -> String {
    "null".to_string()
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| reference.to_string())
}
