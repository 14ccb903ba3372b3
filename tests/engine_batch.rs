//! End-to-end acceptance test of the serving engine through the CLI:
//! `rect-addr batch -` on a 100-job JSON-lines stream of `gen`-produced
//! matrices with row/column-permuted duplicates. Every returned partition
//! must validate against its job's matrix, and the permuted duplicates must
//! produce canonical-form cache hits.

use std::collections::BTreeMap;

use bitmatrix::BitMatrix;
use ebmf::gen::random_benchmark;
use proto::{JobRequest, JobResponse};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the CLI's one entry point, the binary's, on in-memory streams:
/// `(exit status, stdout, stderr)`.
fn run_cli(args: &[&str], stdin: &str) -> (u8, String, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = cli::run(&args, &mut stdin.as_bytes(), &mut out, &mut err);
    (
        code,
        String::from_utf8(out).unwrap(),
        String::from_utf8(err).unwrap(),
    )
}

/// Builds a 100-job stream: 20 distinct random instances (the `gen rand`
/// family), then 80 row/col-permuted duplicates of them.
fn hundred_jobs() -> (String, BTreeMap<String, BitMatrix>) {
    let bases: Vec<BitMatrix> = (0..20)
        .map(|i| random_benchmark(8, 8, 0.4, 1000 + i).matrix)
        .collect();
    let mut rng = StdRng::seed_from_u64(77);
    let mut lines = String::new();
    let mut by_id = BTreeMap::new();
    for i in 0..100 {
        let base = &bases[i % bases.len()];
        let matrix = if i < bases.len() {
            base.clone()
        } else {
            let rp = bitmatrix::random_permutation(base.nrows(), &mut rng);
            let cp = bitmatrix::random_permutation(base.ncols(), &mut rng);
            base.submatrix(&rp, &cp)
        };
        let req = JobRequest::new(format!("job-{i:03}"), matrix.clone()).with_budget_ms(5_000);
        lines.push_str(&req.to_json_line());
        lines.push('\n');
        by_id.insert(req.id, matrix);
    }
    (lines, by_id)
}

#[test]
fn batch_solves_100_job_stream_with_cache_hits() {
    let (jobs, by_id) = hundred_jobs();
    let (code, stdout, stderr) = run_cli(&["batch", "-", "--workers", "4", "--trials", "8"], &jobs);
    assert_eq!(code, 0, "{stderr}");

    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 101, "100 responses + summary");

    let mut hits = 0usize;
    let mut seen = BTreeMap::new();
    for line in &lines[..100] {
        let resp = JobResponse::parse_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(resp.ok, "job {} failed: {:?}", resp.id, resp.error);
        let m = by_id.get(&resp.id).expect("response id matches a job");
        // Every returned partition passes Partition::validate.
        let p = resp.to_partition(m.nrows(), m.ncols());
        assert!(
            p.validate(m).is_ok(),
            "job {}: invalid partition\n{m}",
            resp.id
        );
        assert_eq!(p.len(), resp.depth);
        if resp.cache_hit {
            hits += 1;
            assert_eq!(resp.provenance, "cache");
        }
        seen.insert(resp.id.clone(), resp);
    }
    assert_eq!(seen.len(), 100, "every job answered exactly once");
    assert!(
        hits >= 1,
        "permuted duplicates must produce canonical-cache hits (got {hits})"
    );

    // The summary trailer reports the same hits the responses claim.
    let summary = lines[100];
    assert!(summary.contains("\"summary\": true"), "{summary}");
    assert!(summary.contains("\"solved\": 100"), "{summary}");

    // Duplicates of the same permutation class agree on depth with their
    // base instance (a cache hit can never change the answer).
    for i in 20..100 {
        let dup = &seen[&format!("job-{i:03}")];
        let base = &seen[&format!("job-{:03}", i % 20)];
        assert_eq!(
            dup.depth, base.depth,
            "job {i} depth differs from its base instance"
        );
    }
}

#[test]
fn batch_stream_mixes_errors_and_results_without_stalling() {
    let jobs = "\
{\"id\": \"good\", \"matrix\": [\"110\", \"011\"]}\n\
this line is not json\n\
{\"id\": \"empty\", \"matrix\": []}\n";
    let (code, stdout, stderr) = run_cli(&["batch", "-"], jobs);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("\"id\": \"good\""));
    assert!(stdout.contains("\"solved\": 1"));
    assert!(stdout.contains("\"failed\": 2"));
}
