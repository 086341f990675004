//! What the benchmark ran on, read from `/proc`: every report names the
//! core count, CPU model, affinity mask and load average it was taken
//! under, and the runner refuses a workload whose busy threads would not
//! each get a core.

use std::fs;

/// The machine and process facts recorded with every run.
#[derive(Debug, Clone)]
pub struct Machine {
    /// `std::thread::available_parallelism` (honours affinity and cgroups).
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `Cpus_allowed_list` of this process.
    pub affinity: String,
    /// 1-minute load average when the run started.
    pub loadavg_1m: f64,
}

fn status_field(field: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix(field)
            .and_then(|rest| rest.strip_prefix(':'))
            .map(|v| v.trim().to_string())
    })
}

impl Machine {
    /// Reads the facts; anything unreadable becomes `"unknown"` / 0.
    pub fn probe() -> Self {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let loadavg_1m = fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(0.0);
        Machine {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu_model,
            affinity: status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".to_string()),
            loadavg_1m,
        }
    }

    /// One line for the human-readable report.
    pub fn describe(&self) -> String {
        format!(
            "nproc={} cpu=\"{}\" affinity={} loadavg_1m={:.2}",
            self.nproc, self.cpu_model, self.affinity, self.loadavg_1m
        )
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, 0.0 if unreadable.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM")
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// On-CPU nanoseconds so far of every thread of this process whose name
/// starts with `prefix` (from `/proc/self/task/*/schedstat`).
pub fn thread_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            fs::read_to_string(t.path().join("comm"))
                .map(|c| c.trim_end().starts_with(prefix))
                .unwrap_or(false)
        })
        .filter_map(|t| {
            fs::read_to_string(t.path().join("schedstat"))
                .ok()?
                .split_whitespace()
                .next()?
                .parse::<u64>()
                .ok()
        })
        .sum()
}

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// The kernel's `struct sched_param`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// `SCHED_IDLE`: runs only when nothing else wants the CPU.
const SCHED_IDLE: i32 = 5;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// The CPUs the calling thread may run on, ascending (empty if unknown or
/// not on Linux).
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; CPU_SET_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed, which is all `sched_getaffinity` requires; pid 0 names
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc == 0 {
            return (0..CPU_SET_WORDS * 64)
                .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Restricts the calling thread — and every thread it spawns from now on,
/// which inherit the mask — to `cpus`. Returns whether the kernel agreed.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; CPU_SET_WORDS];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < CPU_SET_WORDS * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a live buffer of exactly the size passed and is
        // only read; pid 0 names the calling thread.
        return unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0;
    }
    #[allow(unreachable_code)]
    false
}

/// Moves the calling thread to the idle scheduling class, where any
/// ordinary thread preempts it at once. Returns whether the kernel agreed.
pub fn make_current_thread_idle_class() -> bool {
    #[cfg(target_os = "linux")]
    {
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: `param` is a live, correctly laid out `sched_param` that
        // is only read; pid 0 names the calling thread.
        return unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
    }
    #[allow(unreachable_code)]
    false
}

/// A thread that spins in the idle scheduling class on the CPUs it is
/// spawned under, so that those CPUs never halt.
///
/// On the virtual machines this benchmark runs on, waking a halted virtual
/// CPU took up to 50 ms: a lightly loaded server, asleep between queries,
/// answered in bursts, overflowed its socket and turned a tenth of the
/// runs' latency figures into measurements of the hypervisor. The spinner
/// yields to every ordinary thread immediately and takes nothing from a
/// busy server.
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl KeepAwake {
    /// Starts the spinner under the calling thread's current CPU mask.
    /// If the idle class is refused the thread exits at once rather than
    /// compete with the server at normal priority.
    pub fn spawn() -> std::io::Result<Self> {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let seen = std::sync::Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("bench-awake".to_string())
            .spawn(move || {
                if !make_current_thread_idle_class() {
                    return;
                }
                while !seen.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            })?;
        Ok(KeepAwake { stop, thread })
    }

    /// Stops the spinner and waits for it.
    pub fn stop(self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        self.thread.join().expect("keep-awake thread panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_awake_spins_in_the_idle_class_and_stops_on_request() {
        let awake = KeepAwake::spawn().expect("spawn");
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Policy is field 41 of /proc/<pid>/task/<tid>/stat; simpler: the
        // thread shows CPU time only if the idle class was granted.
        let spun = thread_cpu_ns("bench-awake");
        awake.stop();
        if std::thread::spawn(make_current_thread_idle_class)
            .join()
            .expect("join")
        {
            assert!(spun > 0, "idle-class spinner ran");
        }
    }

    #[test]
    fn probe_reads_a_plausible_machine() {
        let m = Machine::probe();
        assert!(m.nproc >= 1);
        assert!(!m.cpu_model.is_empty());
        assert!(m.describe().contains("nproc="));
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn pinning_narrows_this_thread_and_is_inherited() {
        // On a thread of its own: the mask must not leak into other tests.
        std::thread::spawn(|| {
            let all = allowed_cpus();
            assert!(!all.is_empty());
            assert!(pin_current_thread(&all[..1]));
            assert_eq!(allowed_cpus(), all[..1]);
            let child = std::thread::spawn(allowed_cpus).join().expect("join");
            assert_eq!(child, all[..1], "spawned threads inherit the mask");
            assert!(pin_current_thread(&all));
            assert_eq!(allowed_cpus(), all);
        })
        .join()
        .expect("join");
    }

    #[test]
    fn thread_cpu_counts_only_matching_threads() {
        let spin = std::thread::Builder::new()
            .name("bench-spin-x".to_string())
            .spawn(|| {
                let until = std::time::Instant::now() + std::time::Duration::from_millis(30);
                while std::time::Instant::now() < until {
                    std::hint::spin_loop();
                }
                // Read while the thread is still alive: its task entry
                // disappears at exit.
                thread_cpu_ns("bench-spin-x")
            })
            .expect("spawn");
        let busy = spin.join().expect("join");
        assert!(busy > 5_000_000, "spinner shows CPU time: {busy}");
        assert_eq!(thread_cpu_ns("no-such-thread-name"), 0);
    }
}
