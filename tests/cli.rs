//! Smoke tests for the `nyaya` command-line binary.

use std::io::Write as _;
use std::process::Command;

const PROGRAM: &str = "
sigma5: stock_portf(X, Y, Z) -> has_stock(Y, X).
sigma6: has_stock(X, Y) -> stock_portf(Y, X, Z).
delta1: legal_person(X), fin_ins(X) -> false.
key(list_comp/2) = {1}.
has_stock(ibm_s, fund1).
q(A, B) :- stock_portf(B, A, D).
";

fn write_program(name: &str, contents: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("nyaya_cli_test_{name}_{}.dlp", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nyaya"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn classify_reports_linearity() {
    let path = write_program("classify", PROGRAM);
    let (ok, stdout, _) = run(&["classify", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.contains("linear:               true"), "{stdout}");
    assert!(stdout.contains("FO-rewritable:        true"), "{stdout}");
}

#[test]
fn rewrite_prints_the_ucq() {
    let path = write_program("rewrite", PROGRAM);
    let (ok, stdout, _) = run(&["rewrite", path.to_str().unwrap(), "--star"]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.contains("% 2 CQs"), "{stdout}");
    assert!(stdout.contains("has_stock"), "{stdout}");
}

#[test]
fn answer_executes_over_the_facts() {
    let path = write_program("answer", PROGRAM);
    let (ok, stdout, _) = run(&["answer", path.to_str().unwrap(), "--star"]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stdout}");
    assert!(stdout.contains("1 answer(s)"), "{stdout}");
    assert!(stdout.contains("q(ibm_s, fund1)"), "{stdout}");
}

#[test]
fn answer_json_emits_machine_readable_answers_and_stats() {
    let path = write_program("answer_json", PROGRAM);
    let (ok, stdout, stderr) = run(&["answer", path.to_str().unwrap(), "--star", "--json"]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stderr}");
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{stdout}");
    assert!(
        line.contains("\"answers\":[[\"ibm_s\",\"fund1\"]]"),
        "{stdout}"
    );
    assert!(line.contains("\"backend\":\"in-memory\""), "{stdout}");
    assert!(line.contains("\"rewriting\":{\"cqs\":2,"), "{stdout}");
    // The stats describe the user's workload: one query, compiled once,
    // executed once, zero cache hits. The JSON emitter's own rewriting
    // lookup for the `rewriting` block must not inflate the counters.
    assert!(line.contains("\"cache_misses\":1"), "{stdout}");
    assert!(line.contains("\"cache_hits\":0"), "{stdout}");
    assert!(line.contains("\"executions\":1"), "{stdout}");
    // Engine-side counters: one answer row from the in-memory engine; a
    // two-disjunct rewriting stays under the parallel-routing threshold.
    assert!(line.contains("\"rows_returned\":1"), "{stdout}");
    assert!(line.contains("\"parallel_executions\":0"), "{stdout}");
    // Snapshot/update counters: the CLI never applies batches, so the
    // state is the build-time epoch with the program's one fact.
    assert!(line.contains("\"epoch\":0"), "{stdout}");
    assert!(line.contains("\"batches_applied\":0"), "{stdout}");
    assert!(line.contains("\"snapshot_facts\":1"), "{stdout}");
    // Compile-time counters: one sequential compile, no minimization.
    assert!(line.contains("\"rewrite_explored\":"), "{stdout}");
    assert!(line.contains("\"rewrites_parallel\":0"), "{stdout}");
    assert!(
        line.contains("\"subsumption_checks_avoided\":0"),
        "{stdout}"
    );
}

#[test]
fn answer_with_workers_and_minimize_matches_default() {
    let path = write_program("answer_workers", PROGRAM);
    let (ok, plain, _) = run(&["answer", path.to_str().unwrap(), "--star"]);
    let (ok2, tuned, stderr) = run(&["answer", path.to_str().unwrap(), "--star", "--minimize"]);
    std::fs::remove_file(&path).ok();
    assert!(ok && ok2, "{stderr}");
    // Compare the answer lines only: the `%` header legitimately differs
    // when --minimize shrinks the printed rewriting size.
    let answers = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| !l.starts_with('%'))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(
        answers(&plain),
        answers(&tuned),
        "compile-time knobs must never change answers"
    );

    let path = write_program("answer_workers_json", PROGRAM);
    let (ok, stdout, stderr) = run(&[
        "answer",
        path.to_str().unwrap(),
        "--star",
        "--minimize",
        "--json",
    ]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stderr}");
    // Rounds this small never split, whatever the host's cores.
    assert!(stdout.contains("\"rewrites_parallel\":0"), "{stdout}");
}

#[test]
fn answer_rejects_inconsistent_database() {
    let bad = "
        delta: a(X), b(X) -> false.
        a(k). b(k).
        q(X) :- a(X).
    ";
    let path = write_program("inconsistent", bad);
    let (ok, _, stderr) = run(&["answer", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(stderr.contains("inconsistent"), "{stderr}");
}

#[test]
fn answer_rejects_key_violation() {
    let bad = "
        key(r/2) = {1}.
        r(a, b). r(a, c).
        q(X) :- r(X, Y).
    ";
    let path = write_program("kd", bad);
    let (ok, _, stderr) = run(&["answer", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(stderr.contains("key dependency"), "{stderr}");
}

#[test]
fn sql_emits_union() {
    let path = write_program("sql", PROGRAM);
    let (ok, stdout, _) = run(&["sql", path.to_str().unwrap(), "--star"]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.contains("SELECT DISTINCT"), "{stdout}");
    assert!(stdout.contains("UNION"), "{stdout}");
}

#[test]
fn chase_materializes() {
    let path = write_program("chase", PROGRAM);
    let (ok, stdout, _) = run(&["chase", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.contains("saturated: true"), "{stdout}");
    assert!(stdout.contains("stock_portf(fund1,ibm_s,z"), "{stdout}");
}

#[test]
fn dl_lite_files_are_recognized() {
    let dl = "Person [= LegalAgent\nexists hasStock [= Person\n";
    let path = std::env::temp_dir().join(format!("nyaya_cli_test_dl_{}.dl", std::process::id()));
    std::fs::write(&path, dl).unwrap();
    let (ok, stdout, _) = run(&["classify", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.contains("TGDs:                2"), "{stdout}");
}

#[test]
fn bad_usage_fails_with_help() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn bad_algorithm_is_rejected() {
    let path = write_program("badalg", PROGRAM);
    let (ok, _, stderr) = run(&["rewrite", path.to_str().unwrap(), "--algorithm", "xx"]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"), "{stderr}");
}

#[test]
fn baseline_algorithms_run_from_cli() {
    let path = write_program("baselines", PROGRAM);
    for alg in ["qo", "rq"] {
        let (ok, stdout, stderr) = run(&["rewrite", path.to_str().unwrap(), "--algorithm", alg]);
        assert!(ok, "{alg}: {stderr}");
        assert!(stdout.contains("CQs"), "{alg}: {stdout}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn program_emits_nonrecursive_datalog() {
    // Two independent sub-queries → the clustered construction kicks in.
    let src = "
r1: sp(X) -> p(X).
r2: su(X) -> u(X).
q(A) :- p(A), t(A, B), u(B).
";
    let path = write_program("program", src);
    let (ok, stdout, _) = run(&["program", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stdout}");
    assert!(stdout.contains("3 clusters"), "{stdout}");
    assert!(stdout.contains("goal: q(A)"), "{stdout}");
    assert!(stdout.contains(":-"), "{stdout}");
}

#[test]
fn program_views_prints_sql() {
    let src = "
r1: sp(X) -> p(X).
q(A) :- p(A).
";
    let path = write_program("program_views", src);
    let (ok, stdout, _) = run(&["program", path.to_str().unwrap(), "--views"]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stdout}");
    assert!(stdout.contains("CREATE VIEW"), "{stdout}");
    assert!(stdout.contains("UNION"), "{stdout}");
    assert!(stdout.contains("single-statement form"), "{stdout}");
}

#[test]
fn durable_data_dir_save_history_and_time_travel() {
    let src = "
sigma1: manager(X) -> employee(X).
sigma2: employee(X) -> person(X).
manager(ann).
q(A) :- person(A).
";
    let path = write_program("durable", src);
    let dir = std::env::temp_dir().join(format!("nyaya_cli_test_ledger_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_s = dir.to_str().unwrap().to_owned();
    let p = path.to_str().unwrap().to_owned();

    // `save`, `compact` and `history` refuse to run without a ledger.
    let (ok, _, stderr) = run(&["save", &p]);
    assert!(!ok);
    assert!(stderr.contains("needs --data-dir"), "{stderr}");

    // First open seeds the ledger; the file's facts are already durable.
    let (ok, stdout, stderr) = run(&["save", &p, "--data-dir", &dir_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("nothing to save"), "{stdout}");

    // A grown file persists only the new facts, as one batch (epoch 1).
    let grown = format!("{src}manager(bob).\n");
    std::fs::write(&path, &grown).unwrap();
    let (ok, stdout, stderr) = run(&["save", &p, "--data-dir", &dir_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("saved 1 fact(s) as epoch 1"), "{stdout}");

    // A separate process recovers the store and time-travels to epoch 0.
    let (ok, now, stderr) = run(&["answer", &p, "--data-dir", &dir_s]);
    assert!(ok, "{stderr}");
    assert!(now.contains("q(ann)") && now.contains("q(bob)"), "{now}");
    let (ok, then, stderr) = run(&["answer", &p, "--data-dir", &dir_s, "--at", "0"]);
    assert!(ok, "{stderr}");
    assert!(
        then.contains("q(ann)") && !then.contains("q(bob)"),
        "{then}"
    );

    // Asking for an epoch that never existed is a typed, ranged error.
    let (ok, _, stderr) = run(&["answer", &p, "--data-dir", &dir_s, "--at", "99"]);
    assert!(!ok);
    assert!(
        stderr.contains("epoch 99 does not exist") && stderr.contains("0..=1"),
        "{stderr}"
    );

    // `compact` seals the WAL; `history` reports the on-disk layout.
    let (ok, stdout, stderr) = run(&["compact", &p, "--data-dir", &dir_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("segment flushed at epoch 1"), "{stdout}");
    let (ok, stdout, stderr) = run(&["history", &p, "--data-dir", &dir_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("latest epoch 1"), "{stdout}");
    assert!(stdout.contains("sealed WAL range(s)"), "{stdout}");

    // `--json` reports the ledger counters.
    let (ok, stdout, stderr) = run(&["answer", &p, "--data-dir", &dir_s, "--json"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"durable\":true"), "{stdout}");
    let (ok, stdout, _) = run(&["answer", &p, "--json"]);
    assert!(ok);
    assert!(stdout.contains("\"durable\":false"), "{stdout}");

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn strategy_program_routes_answers_and_sql() {
    let src = "
r1: sp(X) -> p(X).
r2: su(X) -> u(X).
p(a). u(b). sp(c). su(d). t(a, b). t(c, d).
q(A) :- p(A), t(A, B), u(B).
";
    let path = write_program("strategy_program", src);
    let (ok, stdout, _) = run(&[
        "answer",
        path.to_str().unwrap(),
        "--strategy",
        "program",
        "--json",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"backend\":\"program\""), "{stdout}");
    assert!(stdout.contains("\"program\":{\"rules\":"), "{stdout}");
    assert!(stdout.contains("\"program_compiles\":1"), "{stdout}");
    // The UCQ strategy answers identically through the flat path.
    let (ok, flat, _) = run(&[
        "answer",
        path.to_str().unwrap(),
        "--strategy",
        "ucq",
        "--json",
    ]);
    assert!(ok, "{flat}");
    assert!(flat.contains("\"backend\":\"in-memory\""), "{flat}");
    for tuple in ["[\"a\"]", "[\"c\"]"] {
        assert!(stdout.contains(tuple), "{stdout}");
        assert!(flat.contains(tuple), "{flat}");
    }
    // SQL under the program strategy ships the WITH-CTE form.
    let (ok, sql, _) = run(&["sql", path.to_str().unwrap(), "--strategy", "program"]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{sql}");
    assert!(sql.contains("WITH "), "{sql}");
    // An unknown strategy is a usage error.
    let path = write_program("strategy_bad", src);
    let (ok, _, stderr) = run(&["answer", path.to_str().unwrap(), "--strategy", "dnf"]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(stderr.contains("unknown strategy"), "{stderr}");
}

/// Run the binary with the given stdin, capturing stdout/stderr.
fn run_with_stdin(args: &[&str], input: &str) -> (bool, String, String) {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_nyaya"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn watch_streams_per_epoch_answer_diffs() {
    let src = "
t0: c0(X) -> top(X).
t1: c1(X) -> top(X).
q(X, Y) :- top(X), edge(X, Y), top(Y).
c0(a).
c1(b).
edge(a, b).
";
    let path = write_program("watch", src);
    let input = "+edge(b, a)\ncommit\n-c0(a)\n\nnot a fact line\nquit\n";
    let (ok, stdout, stderr) = run_with_stdin(&["watch", path.to_str().unwrap()], input);
    assert!(ok, "{stdout}\n{stderr}");
    // Seed diff at epoch 0, then one diff per committed batch.
    assert!(stdout.contains("% epoch 0: q +1 -0"), "{stdout}");
    assert!(stdout.contains("+ q(a, b)"), "{stdout}");
    assert!(stdout.contains("% epoch 1: q +1 -0"), "{stdout}");
    assert!(stdout.contains("+ q(b, a)"), "{stdout}");
    // Retracting c0(a) removes top(a)'s only support: both answers die.
    assert!(stdout.contains("% epoch 2: q +0 -2"), "{stdout}");
    assert!(stdout.contains("- q(a, b)"), "{stdout}");
    assert!(stdout.contains("- q(b, a)"), "{stdout}");
    // Malformed lines are reported, not fatal.
    assert!(stderr.contains("ignored"), "{stderr}");

    // --json emits one machine-readable line per diff.
    let (ok, json, _) = run_with_stdin(
        &["watch", path.to_str().unwrap(), "--json"],
        "+edge(b, a)\n\n",
    );
    std::fs::remove_file(&path).ok();
    assert!(ok, "{json}");
    assert!(
        json.contains("{\"epoch\":0,\"query\":\"q\",\"added\":[[\"a\",\"b\"]],\"removed\":[]}"),
        "{json}"
    );
    assert!(
        json.contains("{\"epoch\":1,\"query\":\"q\",\"added\":[[\"b\",\"a\"]],\"removed\":[]}"),
        "{json}"
    );
}

const EDGES: &str = "
edge(a, b). edge(b, c). edge(c, a). edge(a, c).
q(X, Y) :- edge(X, Y).
";

#[test]
fn answer_applies_result_modifiers() {
    let path = write_program("modifiers", EDGES);

    // ORDER BY first column descending, top-2.
    let (ok, stdout, stderr) = run(&[
        "answer",
        path.to_str().unwrap(),
        "--order-by",
        "1:desc",
        "--limit",
        "2",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("% 2 row(s)"), "{stdout}");
    let rows: Vec<&str> = stdout.lines().filter(|l| l.starts_with("q(")).collect();
    assert_eq!(rows, ["q(c, a)", "q(b, c)"], "{stdout}");

    // Range filter on the first column.
    let (ok, stdout, _) = run(&["answer", path.to_str().unwrap(), "--where", "1>=b"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("% 2 row(s)"), "{stdout}");
    assert!(
        stdout.contains("q(b, c)") && stdout.contains("q(c, a)"),
        "{stdout}"
    );

    // Grouped COUNT: `a` has two outgoing edges.
    let (ok, stdout, _) = run(&[
        "answer",
        path.to_str().unwrap(),
        "--count",
        "--group-by",
        "1",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("% 3 row(s)"), "{stdout}");
    assert!(stdout.contains("q(a, 2)"), "{stdout}");
    assert!(
        stdout.contains("q(b, 1)") && stdout.contains("q(c, 1)"),
        "{stdout}"
    );

    // Global MIN over the second column.
    let (ok, stdout, _) = run(&["answer", path.to_str().unwrap(), "--min", "2"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("% 1 row(s)"), "{stdout}");
    assert!(stdout.contains("q(a)"), "{stdout}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn answer_modifiers_emit_ordered_json_rows_and_planner_stats() {
    let path = write_program("modifiers_json", EDGES);
    let (ok, stdout, stderr) = run(&["answer", path.to_str().unwrap(), "--count", "--json"]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stderr}");
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{stdout}");
    assert!(line.contains("\"rows\":[[\"4\"]]"), "{stdout}");
    // The planner counters ride along in the shared stats block.
    assert!(line.contains("\"plan_replans\":0"), "{stdout}");
}

#[test]
fn answer_explain_prints_the_chosen_plan() {
    let path = write_program("explain", EDGES);
    let (ok, stdout, stderr) = run(&["answer", path.to_str().unwrap(), "--explain"]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stderr}");
    assert!(stdout.contains("strategy: ucq (1 disjuncts)"), "{stdout}");
    assert!(
        stdout.contains("operators: scan 1, hash 0, merge 0"),
        "{stdout}"
    );
    assert!(stdout.contains("total estimated cost"), "{stdout}");
}

#[test]
fn answer_rejects_malformed_modifiers() {
    let path = write_program("bad_modifiers", EDGES);
    let (ok, _, stderr) = run(&["answer", path.to_str().unwrap(), "--where", "1~x"]);
    assert!(!ok);
    assert!(stderr.contains("COL<OP>VALUE"), "{stderr}");

    let (ok, _, stderr) = run(&["answer", path.to_str().unwrap(), "--group-by", "1"]);
    assert!(!ok);
    assert!(stderr.contains("--group-by needs"), "{stderr}");

    let (ok, _, stderr) = run(&["answer", path.to_str().unwrap(), "--count", "--min", "2"]);
    assert!(!ok);
    assert!(stderr.contains("at most one of"), "{stderr}");

    // Column numbers are validated against the query head (1-based).
    let (ok, _, stderr) = run(&["answer", path.to_str().unwrap(), "--where", "3<b"]);
    assert!(!ok);
    assert!(stderr.contains("invalid select options"), "{stderr}");

    let (ok, _, stderr) = run(&["answer", path.to_str().unwrap(), "--at", "0", "--count"]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(stderr.contains("--at cannot be combined"), "{stderr}");
}

/// A reader that stops early (`nyaya answer f.dlp --json | head -c 100`)
/// closes the pipe while the binary still writes: it exits quietly, with
/// no panic and no backtrace. The answers are far more than any pipe
/// buffer holds, so the write cannot finish before the pipe closes.
#[test]
fn answer_exits_quietly_when_stdout_closes_early() {
    use std::io::Read as _;
    use std::process::Stdio;
    let mut src = String::from("q(A, B) :- holds(A, B).\n");
    for i in 0..60_000 {
        src.push_str(&format!(
            "holds(company_number_{i}, portfolio_{}).\n",
            i % 97
        ));
    }
    let path = write_program("broken_pipe", &src);
    let mut child = Command::new(env!("CARGO_BIN_EXE_nyaya"))
        .args(["answer", path.to_str().unwrap(), "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 100];
    stdout.read_exact(&mut head).expect("the first 100 bytes");
    drop(stdout);
    let out = child.wait_with_output().expect("binary runs");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(head.starts_with(b"{\"queries\":["), "{head:?}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Broken pipe"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}

/// The usage text answers a command line the binary cannot run, not an
/// error the command ran into: an inconsistent database is reported
/// alone.
#[test]
fn a_runtime_error_prints_no_usage_text() {
    let bad = "
        delta: a(X), b(X) -> false.
        a(k). b(k).
        q(X) :- a(X).
    ";
    let path = write_program("runtime_error", bad);
    let (ok, _, stderr) = run(&["answer", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(stderr.contains("inconsistent"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    let (ok, _, stderr) = run(&["answer"]);
    assert!(!ok);
    assert!(
        stderr.contains("usage:"),
        "a usage error keeps it: {stderr}"
    );
}

/// An error reported to a standard error whose reader is gone still ends
/// the command with status 1: the report is dropped, nothing panics.
#[test]
fn answer_exits_1_without_a_panic_when_stderr_is_closed() {
    let bad = "
        delta: a(X), b(X) -> false.
        a(k). b(k).
        q(X) :- a(X).
    ";
    let path = write_program("closed_stderr", bad);
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_nyaya"))
        .args(["answer", path.to_str().unwrap()])
        .stdout(std::process::Stdio::null())
        .stderr(writer)
        .status()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    assert_eq!(status.code(), Some(1), "{status:?}");
}
