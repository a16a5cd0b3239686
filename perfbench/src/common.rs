//! Pieces both workload families share: the thread budget, the
//! tree-walker reference, and host facts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Threads the benchmark may keep busy: the host's CPUs, at most two, so
/// runs on larger hosts load the program the same way.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Maps `f` over `items` on at most `threads` scoped threads, keeping the
/// input order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new(items.iter().map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.min(items.len()) {
            s.spawn(|| loop {
                // Relaxed: the counter only hands out indices; results
                // are published through the mutex.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(x) = items.get(i) else { break };
                let r = f(i, x);
                out.lock().expect("no worker panics while holding the lock")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("workers finished")
        .into_iter()
        .map(|r| r.expect("every index was mapped"))
        .collect()
}

/// The expected behaviour of one (program, input) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// `service::fingerprint_outcome` of the reference run.
    pub fingerprint: u64,
    /// Modelled cycles of the reference run (0 if it trapped).
    pub cycles: u64,
    /// Whether the reference run trapped.
    pub trapped: bool,
}

/// A workload's original source, checked and lowered once. This module is
/// the reference: it never passes through the reuse pipeline.
#[derive(Debug)]
pub struct Original {
    /// The untransformed program, lowered.
    pub module: vm::Module,
}

impl Original {
    /// Checks and lowers the source of `w`.
    ///
    /// # Panics
    ///
    /// Panics if a bundled workload fails the front end.
    pub fn new(w: &workloads::Workload) -> Self {
        let checked = minic::compile(&w.source)
            .unwrap_or_else(|e| panic!("{} fails the front end: {e}", w.name));
        Original {
            module: vm::lower(&checked),
        }
    }

    /// Runs the tree-walking interpreter (the executable specification)
    /// on `input`.
    pub fn reference(&self, input: &[i64]) -> Expected {
        let out = vm::run(
            &self.module,
            vm::RunConfig {
                input: input.to_vec(),
                engine: vm::Engine::Tree,
                ..vm::RunConfig::default()
            },
        );
        Expected {
            fingerprint: service::fingerprint_outcome(&out),
            cycles: out.as_ref().map_or(0, |o| o.cycles),
            trapped: out.is_err(),
        }
    }
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `rustc --version`, or `unknown`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `git rev-parse HEAD` of the working directory's `.git`, or `unknown`
/// outside a git checkout.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_keeps_order() {
        let xs: Vec<u64> = (0..50).collect();
        assert_eq!(
            par_map(&xs, 2, |_, x| x * 2),
            (0..50).map(|x| x * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
