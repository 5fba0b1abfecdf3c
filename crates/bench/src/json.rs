//! Benchmark artifact emission.
//!
//! The harness keeps machine-readable copies of benchmark runs under
//! `results/BENCH_<name>.json` so regressions can be diffed without
//! parsing the human-readable tables. The JSON writer itself is the
//! workspace's canonical emitter in [`son_telemetry::json`] (shared
//! with the telemetry snapshot exporter); this module re-exports it and
//! keeps only the bench-artifact shape:
//!
//! ```json
//! { "bench": "<name>", "config": { ... }, "rows": [ { ... }, ... ] }
//! ```

use std::path::PathBuf;

pub use son_telemetry::Json;

/// Assembles the standard artifact shape:
/// `{"bench": name, "config": ..., "rows": [...]}`.
pub fn bench_artifact(name: &str, config: Json, rows: Vec<Json>) -> Json {
    Json::obj([
        ("bench", Json::from(name)),
        ("config", config),
        ("rows", Json::Arr(rows)),
    ])
}

/// The path of artifact `stem` under `results/`, creating the
/// directory if needed: `results/<stem>.json` for a full run, and
/// `results/<stem>_smoke.json` for a smoke run, so a CI-sized run never
/// overwrites the committed full-run file.
pub fn artifact_path(stem: &str, smoke: bool) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)?;
    let suffix = if smoke { "_smoke" } else { "" };
    Ok(dir.join(format!("{stem}{suffix}.json")))
}

/// Writes `artifact` to `results/BENCH_<name>.json`, or to
/// `results/BENCH_<name>_smoke.json` for a smoke run (see
/// [`artifact_path`]), and returns the path.
pub fn write_bench_artifact(name: &str, smoke: bool, artifact: &Json) -> std::io::Result<PathBuf> {
    let path = artifact_path(&format!("BENCH_{name}"), smoke)?;
    std::fs::write(&path, artifact.render())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_artifact_shape() {
        let artifact = bench_artifact(
            "demo",
            Json::obj([("proxies", Json::from(500usize))]),
            vec![Json::obj([
                ("workers", Json::from(4usize)),
                ("rps", Json::from(1234.5)),
            ])],
        );
        let text = artifact.render();
        assert!(text.starts_with("{\n  \"bench\": \"demo\","));
        assert!(text.contains("\"proxies\": 500"));
        assert!(text.contains("\"rps\": 1234.5"));
        assert!(text.ends_with("}\n"));
    }
}
