//! The two `/proc/self` readings the benchmark takes: peak resident
//! set size (`VmHWM` in `status`) and CPU time (`utime` + `stime` in
//! `stat`). Parsers take the file text so tests can feed fixtures.

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux reports
/// these in `USER_HZ`, which is 100 on every architecture it exports to
/// user space.
const USER_HZ: f64 = 100.0;

/// `VmHWM` from the text of `/proc/<pid>/status`, in bytes.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    kb.checked_mul(1024)
}

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself hold spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let bytes = parse_vm_hwm(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(bytes as f64 / (1024.0 * 1024.0))
}

/// This process's CPU seconds so far, all threads.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat).ok_or_else(|| "malformed /proc/self/stat".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tturb-bench\nVmPeak:\t  212340 kB\nVmSize:\t  200000 kB\nVmHWM:\t   65536 kB\nVmRSS:\t   40000 kB\n";

    #[test]
    fn vm_hwm_is_read_in_bytes() {
        assert_eq!(parse_vm_hwm(STATUS), Some(65536 * 1024));
        assert_eq!(parse_vm_hwm("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 12\n"), None, "unit is required");
    }

    #[test]
    fn cpu_seconds_skip_a_name_with_spaces_and_parens() {
        let stat = "4242 (turb (bench) x) R 1 4242 4242 0 -1 4194304 1500 0 0 0 250 37 0 0 20 0 3 0 100 1000 500";
        assert_eq!(parse_cpu_seconds(stat), Some(2.87));
        assert_eq!(parse_cpu_seconds("4242 (short) R 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parens at all"), None);
    }

    #[test]
    fn live_readings_are_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
            assert!(cpu_seconds().unwrap() >= 0.0);
        }
    }
}
