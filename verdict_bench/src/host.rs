//! What a result depends on besides the code: cores, SIMD arm, memory.

/// Cores the process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The SIMD kernel arm the DSP layer dispatches to on this host.
pub fn simd_arm() -> &'static str {
    nfbist_dsp::simd::active_arm().name()
}

/// The process's peak resident set (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_high_water_mark() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   4321 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(4321));
        assert_eq!(parse_vm_hwm("VmRSS:\t1 kB\n"), None);
    }
}
