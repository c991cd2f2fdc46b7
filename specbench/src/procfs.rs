//! Process-level readings from `/proc/self` (Linux).

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const TICKS_PER_S: u64 = 100;

/// Process CPU time (user + system, every thread, live or exited) in ns,
/// at `USER_HZ` resolution.
pub fn cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) * (1_000_000_000 / TICKS_PER_S)
}

fn status_field(name: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// Threads in the process right now (the client plus the program's own
/// daemons).
pub fn threads() -> u64 {
    status_field("Threads:")
}

/// Online CPUs as the process sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The source revision of the checkout, read from `.git` without running
/// git; `"none"` when the checkout is not a git repository.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("{r} (packed)")),
        None => head,
    }
}

/// CPUs the process may run on, from `Cpus_allowed_list` (e.g. `0-1,4`),
/// read once: after pinning, the main thread's own list narrows.
fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(read_allowed_cpus)
}

fn read_allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")).unwrap_or("");
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Pins the calling (client) thread and the group-commit combiner to the
/// first allowed CPU, and the reclamation daemons to the second — the
/// paper's dedicated reclamation core. Without it the scheduler places
/// the client, the combiner and the reclaimers anew on every run, and
/// each placement runs at its own speed; with the combiner beside the
/// client, the commit handoff is a same-core switch that a reclamation
/// cycle cannot delay. Uses `taskset` per thread id; returns a note
/// saying what was done.
pub fn pin_client_and_daemons() -> String {
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return format!("unpinned: allowed cpus {cpus:?}");
    }
    let pin = |tid: &str, cpu: usize| {
        std::process::Command::new("taskset")
            .args(["-p", "-c", &cpu.to_string(), tid])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
    };
    let client = std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_default();
    let mut ok = pin(&client, cpus[0]);
    let mut daemons = 0;
    for entry in std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten() {
        let tid = entry.file_name().to_string_lossy().into_owned();
        let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        let cpu = match comm.trim() {
            "specpmt-groupc" => cpus[0],
            c if c.starts_with("specpmt-") => cpus[1],
            _ => continue,
        };
        ok &= pin(&tid, cpu);
        daemons += 1;
    }
    if ok {
        format!(
            "pinned: client and combiner on cpu {}, reclaimers on cpu {} ({daemons} daemons)",
            cpus[0], cpus[1]
        )
    } else {
        format!("unpinned: taskset failed (client {client}, {daemons} daemons)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_live() {
        let t0 = cpu_ns();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_ns() > t0, "{x}");
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
    }
}
