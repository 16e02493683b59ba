//! What a result was measured on: the machine, the toolchain and the
//! source it was built from, so results from different commits can be
//! compared and appended as a trajectory.

use std::path::Path;

use gobo_serve::json::Json;

/// Machine and build description.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Usable hardware threads.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// Which of avx2, avx512f and fma the CPU reports.
    pub simd: Vec<&'static str>,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Git commit, when the checkout is a git repository.
    pub commit: String,
    /// FNV-1a digest of every file under `crates/` plus the root
    /// manifests: identifies the code measured even without git.
    pub source_digest: String,
}

impl Machine {
    /// Probes the machine; `root` is the repository checkout.
    pub fn probe(root: &Path) -> Machine {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_owned(), |(_, v)| v.trim().to_owned());
        let flags: Vec<&str> = cpuinfo
            .lines()
            .find(|l| l.starts_with("flags"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(Vec::new, |(_, v)| v.split_whitespace().collect());
        let simd = ["avx2", "avx512f", "fma"].into_iter().filter(|f| flags.contains(f)).collect();
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            simd,
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: git_commit(root).unwrap_or_else(|| "none".to_owned()),
            source_digest: format!("{:016x}", source_digest(root)),
        }
    }

    /// The description as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu", Json::Str(self.cpu.clone())),
            ("simd", Json::Arr(self.simd.iter().map(|&s| Json::from(s)).collect())),
            ("rustc", Json::from(self.rustc)),
            ("commit", Json::Str(self.commit.clone())),
            ("source_digest", Json::Str(self.source_digest.clone())),
        ])
    }
}

fn git_commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            let loose = std::fs::read_to_string(root.join(".git").join(reference)).ok();
            let packed = || {
                let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .map(|l| l[..40.min(l.len())].to_owned())
            };
            loose.map(|s| s.trim().to_owned()).or_else(packed)
        }
        None => Some(head.to_owned()),
    }
}

fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let name = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().into_owned();
        for b in name.bytes().chain(std::fs::read(&path).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Resident set size of this process, MiB, from `/proc/self/status`.
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
