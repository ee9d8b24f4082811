//! `nyaya` — command-line front end for the ontological query rewriting
//! stack, built on the [`nyaya::KnowledgeBase`] facade.
//!
//! ```text
//! nyaya rewrite  <program.dlp> [--star] [--algorithm ny|qo|rq] [--show-aux]
//! nyaya answer   <program.dlp> [--star] [--strategy auto|ucq|program] [--json]
//!                              [--data-dir DIR] [--at EPOCH]
//! nyaya classify <program.dlp>
//! nyaya sql      <program.dlp> [--star] [--strategy auto|ucq|program]
//! nyaya chase    <program.dlp> [--rounds N]
//! nyaya program  <program.dlp> [--star] [--views]
//! nyaya save     <program.dlp> --data-dir DIR
//! nyaya compact  <program.dlp> --data-dir DIR
//! nyaya history  <program.dlp> --data-dir DIR
//! nyaya watch    <program.dlp> [--json] [--data-dir DIR]
//! nyaya serve    <program.dlp> [--listen ADDR] [--net-workers N]
//!                              [--data-dir DIR] [--no-answer-cache]
//! nyaya client   <request>     [--listen ADDR] [--at EPOCH] [--json]
//! ```
//!
//! A program file contains Datalog± TGDs, negative constraints, key
//! dependencies, facts and queries (see `nyaya-parser` for the grammar).
//! Files ending in `.dl` are parsed as DL-Lite_R axiom lists, `.owl`/`.ofn`
//! as OWL 2 QL documents.

use std::io::{self, BufRead, Write};
use std::process::ExitCode;

use nyaya::chase::ChaseConfig;
use nyaya::core::{AggFunc, Aggregate, ColumnFilter, FilterOp, SelectOptions, SortDir, Term};
use nyaya::rewrite::ProgramStrategy;
use nyaya::sql::{program_to_sql, program_to_sql_views};
use nyaya::{
    json_escape, Algorithm, AnswerDiff, Answers, ExecutorKind, KnowledgeBase, PreparedQuery,
    Strategy, UpdateBatch,
};

/// `eprintln!` that cannot panic: a line standard error refuses (its
/// reader is gone) is dropped, and the exit status still tells how the
/// command went.
macro_rules! report {
    ($($arg:tt)*) => {{
        let _ = writeln!(io::stderr(), $($arg)*);
    }};
}

const USAGE: &str = "usage: nyaya <command> <program-file> [options]

commands:
  rewrite   compute the perfect UCQ rewriting of each query
  answer    check consistency, rewrite and answer each query over the facts
  classify  report Datalog± language-class membership
  sql       print the SQL translation of each rewriting
  chase     materialize the chase of the facts
  program   rewrite each query into a non-recursive Datalog program
  save      persist the file's facts into the durable ledger as one batch
  compact   flush an index segment and seal the replayed WAL prefix
  history   print what the durable ledger holds on disk
  watch     subscribe to every query as a standing query and stream
            per-epoch answer diffs; reads +fact(...)/-fact(...) lines
            from stdin, applies them on a blank line or `commit`
  serve     serve the knowledge base over TCP (prepared-statement
            handshake, answer/apply/stats/explain); drains in-flight
            connections and flushes the ledger on SIGINT/SIGTERM or
            a client shutdown request
  client    one request against a running server; <request> is `ping`,
            `stats`, `shutdown`, `apply` (+/- fact lines on stdin), or
            a query like \"q(X) :- person(X).\"

options:
  --star          use TGD-rewrite* (query elimination; linear TGDs only)
  --algorithm A   ny (default) | qo | rq
  --strategy S    auto (default) | ucq | program — which compiled form
                  executes/ships: the flat UCQ or the non-recursive
                  Datalog program (auto picks per query by estimated
                  DNF size)
  --show-aux      keep auxiliary normalization predicates in the output
  --minimize      drop subsumed CQs from every rewriting (indexed)
  --rounds N      chase round budget (default 32)
  --views         (program) also print the SQL CREATE VIEW translation
  --json          (answer, watch) emit machine-readable answers and stats
  --data-dir D    open (or create) a durable ledger at directory D; on
                  reopen the recovered on-disk facts win over the file's
  --flush-every N segment flush interval in epochs (default 64)
  --at E          (answer, client) answer as of historical epoch E (time
                  travel; past epochs need --data-dir)
  --listen ADDR   (serve, client) the server address
                  (default 127.0.0.1:7464)
  --net-workers N (serve) connection-scheduler worker threads
                  (default: available cores)
  --no-answer-cache  disable the exact answer cache (on by default)

result modifiers (answer; columns are 1-based head positions):
  --where C<OP>V  keep rows whose column C compares to value V with
                  OP in < <= > >= != (repeatable; numeric-aware order)
  --order-by KEYS sort by `1:desc,2` style key list (default asc)
  --limit N       return at most N rows (after --order-by)
  --count         aggregate: number of (distinct) answer rows
  --min C         aggregate: minimum value of column C
  --max C         aggregate: maximum value of column C
  --group-by COLS group aggregates by `1,2` style column list
  --explain       print the execution plan (strategy, operators,
                  per-step estimates) instead of answers";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every command writes through this one handle; a failed write ends
    // the command with `Failure::Output`.
    let mut out = io::stdout().lock();
    match run(&args, &mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed the pipe (`nyaya answer … | head`): it wants
        // no more output, so there is nothing to report.
        Err(Failure::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Output(e)) => {
            report!("error: writing output: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Usage(msg)) => {
            report!("error: {msg}");
            report!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(msg)) => {
            report!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command stopped early.
enum Failure {
    /// A command line this binary cannot run: reported with the usage
    /// text.
    Usage(String),
    /// An error the command ran into.
    Message(String),
    /// Standard output refused a write.
    Output(io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Message(msg)
    }
}

impl From<io::Error> for Failure {
    fn from(err: io::Error) -> Self {
        Failure::Output(err)
    }
}

struct Options {
    star: bool,
    algorithm: String,
    strategy: Strategy,
    show_aux: bool,
    minimize: bool,
    rounds: usize,
    views: bool,
    json: bool,
    data_dir: Option<String>,
    flush_every: Option<u64>,
    at: Option<u64>,
    select: SelectOptions,
    group_by: Vec<usize>,
    explain: bool,
    listen: String,
    net_workers: usize,
    answer_cache: bool,
}

impl Options {
    /// The rewriting engine this invocation asked for.
    fn algorithm(&self) -> Algorithm {
        match self.algorithm.as_str() {
            "qo" => Algorithm::QuOnto,
            "rq" => Algorithm::Requiem,
            _ if self.star => Algorithm::NyayaStar,
            _ => Algorithm::Nyaya,
        }
    }
}

fn parse_options(rest: &[String]) -> Result<Options, String> {
    let mut options = Options {
        star: false,
        algorithm: "ny".to_owned(),
        strategy: Strategy::Auto,
        show_aux: false,
        minimize: false,
        rounds: 32,
        views: false,
        json: false,
        data_dir: None,
        flush_every: None,
        at: None,
        select: SelectOptions::default(),
        group_by: Vec::new(),
        explain: false,
        listen: "127.0.0.1:7464".to_owned(),
        net_workers: 0,
        answer_cache: true,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--star" => options.star = true,
            "--explain" => options.explain = true,
            "--count" => set_agg_func(&mut options, AggFunc::Count)?,
            "--min" => {
                let col = parse_column(it.next(), "--min")?;
                set_agg_func(&mut options, AggFunc::Min(col))?;
            }
            "--max" => {
                let col = parse_column(it.next(), "--max")?;
                set_agg_func(&mut options, AggFunc::Max(col))?;
            }
            "--group-by" => {
                let value = it
                    .next()
                    .ok_or_else(|| "--group-by needs a column list".to_owned())?;
                for part in value.split(',') {
                    options
                        .group_by
                        .push(parse_column(Some(&part.to_owned()), "--group-by")?);
                }
            }
            "--where" => {
                let value = it
                    .next()
                    .ok_or_else(|| "--where needs a COL<OP>VALUE condition".to_owned())?;
                options.select.filters.push(parse_where(value)?);
            }
            "--order-by" => {
                let value = it
                    .next()
                    .ok_or_else(|| "--order-by needs a key list".to_owned())?;
                for part in value.split(',') {
                    options.select.order_by.push(parse_order_key(part)?);
                }
            }
            "--limit" => {
                options.select.limit = Some(
                    it.next()
                        .ok_or_else(|| "--limit needs a value".to_owned())?
                        .parse()
                        .map_err(|_| "--limit needs an integer".to_owned())?,
                );
            }
            "--show-aux" => options.show_aux = true,
            "--views" => options.views = true,
            "--json" => options.json = true,
            "--minimize" => options.minimize = true,
            "--strategy" => {
                let value = it
                    .next()
                    .ok_or_else(|| "--strategy needs a value".to_owned())?;
                options.strategy = match value.as_str() {
                    "auto" => Strategy::Auto,
                    "ucq" => Strategy::Ucq,
                    "program" => Strategy::Program,
                    other => return Err(format!("unknown strategy `{other}`")),
                };
            }
            "--algorithm" => {
                options.algorithm = it
                    .next()
                    .ok_or_else(|| "--algorithm needs a value".to_owned())?
                    .clone();
                if !["ny", "qo", "rq"].contains(&options.algorithm.as_str()) {
                    return Err(format!("unknown algorithm `{}`", options.algorithm));
                }
            }
            "--rounds" => {
                options.rounds = it
                    .next()
                    .ok_or_else(|| "--rounds needs a value".to_owned())?
                    .parse()
                    .map_err(|_| "--rounds needs an integer".to_owned())?;
            }
            "--data-dir" => {
                options.data_dir = Some(
                    it.next()
                        .ok_or_else(|| "--data-dir needs a path".to_owned())?
                        .clone(),
                );
            }
            "--flush-every" => {
                options.flush_every = Some(
                    it.next()
                        .ok_or_else(|| "--flush-every needs a value".to_owned())?
                        .parse()
                        .map_err(|_| "--flush-every needs an integer".to_owned())?,
                );
            }
            "--at" => {
                options.at = Some(
                    it.next()
                        .ok_or_else(|| "--at needs an epoch".to_owned())?
                        .parse()
                        .map_err(|_| "--at needs an integer epoch".to_owned())?,
                );
            }
            "--listen" => {
                options.listen = it
                    .next()
                    .ok_or_else(|| "--listen needs an address".to_owned())?
                    .clone();
            }
            "--net-workers" => {
                options.net_workers = it
                    .next()
                    .ok_or_else(|| "--net-workers needs a value".to_owned())?
                    .parse()
                    .map_err(|_| "--net-workers needs an integer".to_owned())?;
            }
            "--no-answer-cache" => options.answer_cache = false,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    match (&mut options.select.aggregate, options.group_by.is_empty()) {
        (Some(agg), false) => agg.group_by = std::mem::take(&mut options.group_by),
        (None, false) => return Err("--group-by needs --count, --min or --max".to_owned()),
        _ => {}
    }
    Ok(options)
}

/// Parse a 1-based CLI column number into a 0-based index.
fn parse_column(value: Option<&String>, flag: &str) -> Result<usize, String> {
    let n: usize = value
        .ok_or_else(|| format!("{flag} needs a column number"))?
        .trim()
        .parse()
        .map_err(|_| format!("{flag} needs a column number"))?;
    n.checked_sub(1)
        .ok_or_else(|| format!("{flag} columns are numbered from 1"))
}

fn set_agg_func(options: &mut Options, func: AggFunc) -> Result<(), String> {
    if options.select.aggregate.is_some() {
        return Err("at most one of --count, --min, --max".to_owned());
    }
    options.select.aggregate = Some(Aggregate {
        group_by: Vec::new(),
        func,
    });
    Ok(())
}

/// Parse one `--where` condition: `COL<OP>VALUE` with OP in
/// `< <= > >= !=`, e.g. `1>=alice` or `2!=nasdaq`.
fn parse_where(value: &str) -> Result<ColumnFilter, String> {
    // Two-character operators first, or `<` would shadow `<=`.
    for (symbol, op) in [
        ("<=", FilterOp::Le),
        (">=", FilterOp::Ge),
        ("!=", FilterOp::Ne),
        ("<", FilterOp::Lt),
        (">", FilterOp::Gt),
    ] {
        if let Some((col, val)) = value.split_once(symbol) {
            let column = parse_column(Some(&col.to_owned()), "--where")?;
            if val.is_empty() {
                return Err(format!("--where `{value}` has an empty comparison value"));
            }
            return Ok(ColumnFilter {
                column,
                op,
                value: Term::constant(val),
            });
        }
    }
    Err(format!(
        "--where `{value}` is not COL<OP>VALUE with OP in < <= > >= !="
    ))
}

/// Parse one `--order-by` key: `COL` or `COL:asc`/`COL:desc`.
fn parse_order_key(part: &str) -> Result<(usize, SortDir), String> {
    let (col, dir) = match part.split_once(':') {
        None => (part, SortDir::Asc),
        Some((col, "asc")) => (col, SortDir::Asc),
        Some((col, "desc")) => (col, SortDir::Desc),
        Some((_, other)) => return Err(format!("--order-by direction `{other}` is not asc|desc")),
    };
    Ok((parse_column(Some(&col.to_owned()), "--order-by")?, dir))
}

/// Build the knowledge base once; every command runs against it.
fn load_kb(path: &str, options: &Options) -> Result<KnowledgeBase, String> {
    let mut builder = KnowledgeBase::builder()
        .file(path)
        .map_err(|e| e.to_string())?
        .algorithm(options.algorithm())
        .strategy(options.strategy)
        .show_aux(options.show_aux)
        .minimize_rewritings(options.minimize)
        .chase_config(ChaseConfig {
            max_rounds: options.rounds,
            ..Default::default()
        });
    if let Some(dir) = &options.data_dir {
        builder = builder.durable(dir);
    }
    if let Some(n) = options.flush_every {
        builder = builder.flush_interval(n);
    }
    builder
        .answer_cache(options.answer_cache)
        .build()
        .map_err(|e| e.to_string())
}

fn run(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let (command, path, rest) = match args {
        [c, p, rest @ ..] => (c.as_str(), p.as_str(), rest),
        _ => return Err(Failure::Usage("missing command or program file".to_owned())),
    };
    let options = parse_options(rest).map_err(Failure::Usage)?;
    if matches!(command, "save" | "compact" | "history") && options.data_dir.is_none() {
        return Err(Failure::Usage(format!("`{command}` needs --data-dir")));
    }
    if command == "client" {
        // The client talks to a running server; there is no local
        // knowledge base to load, and `path` is the request instead.
        return cmd_client(path, &options, out);
    }
    let kb = load_kb(path, &options)?;

    match command {
        "serve" => cmd_serve(kb, &options),
        "classify" => cmd_classify(&kb, out),
        "rewrite" => cmd_rewrite(&kb, out),
        "sql" => cmd_sql(&kb, out),
        "answer" => cmd_answer(&kb, &options, out),
        "chase" => cmd_chase(&kb, out),
        "program" => cmd_program(&kb, &options, out),
        "save" => cmd_save(&kb, path, out),
        "compact" => cmd_compact(&kb, out),
        "history" => cmd_history(&kb, out),
        "watch" => cmd_watch(&kb, &options, out),
        other => Err(Failure::Usage(format!("unknown command `{other}`"))),
    }
}

/// Prepare every query bundled with the program (error if there are none).
fn prepare_all(kb: &KnowledgeBase) -> Result<Vec<PreparedQuery>, String> {
    if kb.queries().is_empty() {
        return Err(nyaya::NyayaError::NoQuery.to_string());
    }
    kb.queries()
        .iter()
        .map(|q| kb.prepare(q).map_err(|e| e.to_string()))
        .collect()
}

fn cmd_classify(kb: &KnowledgeBase, out: &mut dyn Write) -> Result<(), Failure> {
    let c = kb.classification();
    writeln!(out, "TGDs:                {}", kb.ontology().tgds.len())?;
    writeln!(out, "negative constraints: {}", kb.ontology().ncs.len())?;
    writeln!(out, "key dependencies:     {}", kb.ontology().kds.len())?;
    writeln!(out)?;
    writeln!(out, "linear:               {}", c.linear)?;
    writeln!(out, "guarded:              {}", c.guarded)?;
    writeln!(out, "weakly guarded:       {}", c.weakly_guarded)?;
    writeln!(out, "weakly acyclic:       {}", c.weakly_acyclic)?;
    writeln!(out, "sticky:               {}", c.sticky)?;
    writeln!(out, "FO-rewritable:        {}", c.fo_rewritable())?;
    writeln!(
        out,
        "\nnormal form: {} TGDs, {} auxiliary predicates",
        kb.normalized_tgds().len(),
        kb.aux_predicates().len()
    )?;
    Ok(())
}

fn cmd_rewrite(kb: &KnowledgeBase, out: &mut dyn Write) -> Result<(), Failure> {
    for prepared in prepare_all(kb)? {
        let rewriting = kb.rewriting(&prepared).map_err(|e| e.to_string())?;
        writeln!(
            out,
            "% {} CQs, {} atoms, {} joins ({} queries explored)",
            rewriting.ucq.size(),
            rewriting.ucq.length(),
            rewriting.ucq.width(),
            rewriting.stats.explored
        )?;
        for cq in rewriting.ucq.iter() {
            writeln!(out, "{cq}.")?;
        }
    }
    Ok(())
}

fn cmd_sql(kb: &KnowledgeBase, out: &mut dyn Write) -> Result<(), Failure> {
    for prepared in prepare_all(kb)? {
        let sql = kb.sql(&prepared).map_err(|e| e.to_string())?;
        writeln!(out, "{sql};")?;
    }
    Ok(())
}

fn cmd_answer(kb: &KnowledgeBase, options: &Options, out: &mut dyn Write) -> Result<(), Failure> {
    kb.check_consistency().map_err(|e| e.to_string())?;
    let prepared = prepare_all(kb)?;
    if options.explain {
        for p in &prepared {
            write!(
                out,
                "{}",
                kb.explain(p, &options.select).map_err(|e| e.to_string())?
            )?;
        }
        return Ok(());
    }
    if !options.select.is_plain() {
        if options.at.is_some() {
            return Err("--at cannot be combined with result modifiers"
                .to_owned()
                .into());
        }
        let mut results: Vec<(PreparedQuery, Vec<Vec<Term>>)> = Vec::with_capacity(prepared.len());
        for p in prepared {
            let rows = kb
                .execute_select(&p, &options.select)
                .map_err(|e| e.to_string())?;
            results.push((p, rows));
        }
        if options.json {
            writeln!(out, "{}", rows_to_json(kb, &results))?;
            return Ok(());
        }
        for (p, rows) in &results {
            writeln!(out, "% {} row(s)", rows.len())?;
            for row in rows {
                writeln!(
                    out,
                    "{}({})",
                    p.query().head_pred,
                    row.iter()
                        .map(Term::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                )?;
            }
        }
        return Ok(());
    }
    let mut results: Vec<(PreparedQuery, Answers)> = Vec::with_capacity(prepared.len());
    for p in prepared {
        let answers = match options.at {
            Some(epoch) => kb.execute_at_epoch(&p, epoch).map_err(|e| e.to_string())?,
            None => kb.execute(&p).map_err(|e| e.to_string())?,
        };
        results.push((p, answers));
    }
    if options.json {
        writeln!(out, "{}", answers_to_json(kb, &results))?;
        return Ok(());
    }
    if let Some(epoch) = options.at {
        writeln!(
            out,
            "% answering as of epoch {epoch} (current epoch {})",
            kb.epoch()
        )?;
    }
    for (prepared, answers) in &results {
        // Only consult the caches a backend actually filled: under the
        // chase fallback no rewriting exists, and under the program
        // strategy computing the flat UCQ just to display its size would
        // pay exactly the DNF price the program avoided.
        if answers.backend == "program" {
            match kb.program(prepared) {
                Ok(program) => writeln!(
                    out,
                    "% {} answer(s) via a {}-rule program (hides a {}-CQ DNF)",
                    answers.tuples.len(),
                    program.program.num_rules(),
                    program.estimated_dnf
                )?,
                Err(_) => writeln!(
                    out,
                    "% {} answer(s) via the program backend",
                    answers.tuples.len()
                )?,
            }
        } else {
            let rewriting = (kb.executor_kind() != ExecutorKind::Chase)
                .then(|| kb.rewriting(prepared))
                .and_then(Result::ok);
            match rewriting {
                Some(rewriting) => writeln!(
                    out,
                    "% {} answer(s) via a {}-CQ rewriting",
                    answers.tuples.len(),
                    rewriting.ucq.size()
                )?,
                None => writeln!(
                    out,
                    "% {} answer(s) via the {} backend",
                    answers.tuples.len(),
                    answers.backend
                )?,
            }
        }
        for tuple in &answers.tuples {
            writeln!(
                out,
                "{}({})",
                prepared.query().head_pred,
                tuple
                    .iter()
                    .map(Term::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
        }
    }
    Ok(())
}

fn cmd_chase(kb: &KnowledgeBase, out: &mut dyn Write) -> Result<(), Failure> {
    let outcome = kb.materialize();
    writeln!(
        out,
        "% chase: {} atoms after {} rounds (saturated: {})",
        outcome.instance.len(),
        outcome.rounds,
        outcome.saturated
    )?;
    let mut atoms: Vec<String> = outcome
        .instance
        .atoms()
        .iter()
        .map(|a| format!("{a}."))
        .collect();
    atoms.sort();
    for atom in atoms {
        writeln!(out, "{atom}")?;
    }
    // Also answer queries over the chase, if any (certain answers).
    for query in kb.queries() {
        let prepared = kb.prepare(query).map_err(|e| e.to_string())?;
        let res = kb
            .execute_on(&prepared, ExecutorKind::Chase)
            .map_err(|e| e.to_string())?;
        writeln!(
            out,
            "% certain answers for {}: {}{}",
            query,
            res.tuples.len(),
            if res.complete {
                ""
            } else {
                " (chase truncated — lower bound)"
            }
        )?;
    }
    Ok(())
}

fn cmd_program(kb: &KnowledgeBase, options: &Options, out: &mut dyn Write) -> Result<(), Failure> {
    for prepared in prepare_all(kb)? {
        let compiled = kb.program(&prepared).map_err(|e| e.to_string())?;
        let strategy = match compiled.strategy {
            ProgramStrategy::Clustered { clusters } => format!("{clusters} clusters"),
            ProgramStrategy::Monolithic => "monolithic".to_owned(),
        };
        writeln!(
            out,
            "% {} rules, {} body atoms, {} strata ({strategy}; hides a {}-CQ DNF)",
            compiled.program.num_rules(),
            compiled.program.total_atoms(),
            compiled.stats.program_strata,
            compiled.estimated_dnf,
        )?;
        writeln!(
            out,
            "% optimizer: {} dead, {} subsumed, {} factored into {} shared predicate(s); \
             {} -> {} atoms",
            compiled.opt.dead_rules_removed,
            compiled.opt.rules_subsumed,
            compiled.opt.rules_factored,
            compiled.opt.shared_predicates_added,
            compiled.opt.atoms_before,
            compiled.opt.atoms_after,
        )?;
        write!(out, "{}", compiled.program)?;
        if options.views {
            let snapshot = kb.snapshot();
            let views = program_to_sql_views(&compiled.program, snapshot.catalog())
                .map_err(|e| e.to_string())?;
            let cte =
                program_to_sql(&compiled.program, snapshot.catalog()).map_err(|e| e.to_string())?;
            writeln!(out, "\n{views}")?;
            writeln!(out, "-- single-statement form --\n{cte}")?;
        }
    }
    Ok(())
}

/// Apply the program file's facts to the durable store as one batch —
/// facts the recovered snapshot already holds are skipped, and an
/// all-duplicates file publishes no new epoch at all.
fn cmd_save(kb: &KnowledgeBase, path: &str, out: &mut dyn Write) -> Result<(), Failure> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let program = nyaya::parser::parse_program(&text)
        .map_err(|e| format!("datalog± parse error: {e} (save needs a Datalog± program file)"))?;
    let snapshot = kb.snapshot();
    let fresh: Vec<_> = program
        .facts
        .into_iter()
        .filter(|fact| !snapshot.database().contains(fact))
        .collect();
    if fresh.is_empty() {
        writeln!(
            out,
            "% nothing to save: every fact is already durable at epoch {}",
            snapshot.epoch()
        )?;
        return Ok(());
    }
    let count = fresh.len();
    let outcome = kb
        .apply(nyaya::UpdateBatch::new().insert_all(fresh))
        .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "% saved {count} fact(s) as epoch {} ({} inserted)",
        outcome.epoch, outcome.inserted
    )?;
    Ok(())
}

fn cmd_compact(kb: &KnowledgeBase, out: &mut dyn Write) -> Result<(), Failure> {
    let flush = kb.compact().map_err(|e| e.to_string())?;
    writeln!(
        out,
        "% segment flushed at epoch {}: {} bytes; {} WAL record(s) sealed into history, \
         {} remain active",
        flush.epoch, flush.segment_bytes, flush.sealed_records, flush.remaining_records
    )?;
    Ok(())
}

fn cmd_history(kb: &KnowledgeBase, out: &mut dyn Write) -> Result<(), Failure> {
    let history = kb.ledger_history().map_err(|e| e.to_string())?;
    writeln!(
        out,
        "% ledger at {} — latest epoch {}",
        kb.data_dir()
            .map(|p| p.display().to_string())
            .unwrap_or_default(),
        history.latest_epoch
    )?;
    writeln!(out, "% {} segment(s):", history.segments.len())?;
    for seg in &history.segments {
        writeln!(out, "%   epoch {:>8}  {:>10} bytes", seg.epoch, seg.bytes)?;
    }
    writeln!(out, "% {} sealed WAL range(s):", history.sealed.len())?;
    for sealed in &history.sealed {
        writeln!(
            out,
            "%   epochs {:>8} ..= {:<8} {:>10} bytes",
            sealed.from, sealed.to, sealed.bytes
        )?;
    }
    match history.active_from {
        Some(from) => writeln!(
            out,
            "% active WAL: {} record(s) from epoch {from}, {} bytes",
            history.active_records, history.active_bytes
        )?,
        None => writeln!(out, "% active WAL: empty ({} bytes)", history.active_bytes)?,
    }
    Ok(())
}

/// Subscribe to every bundled query as a standing query and stream
/// per-epoch answer diffs. Stdin drives updates: `+fact(a, b)` queues an
/// insertion, `-fact(a, b)` a retraction; a blank line or `commit`
/// applies the queued batch atomically and prints each subscription's
/// diff for the new epoch. EOF (or `quit`) exits. With `--json`, each
/// diff is one machine-readable line instead.
fn cmd_watch(kb: &KnowledgeBase, options: &Options, out: &mut dyn Write) -> Result<(), Failure> {
    kb.check_consistency().map_err(|e| e.to_string())?;
    let prepared = prepare_all(kb)?;
    let mut subs = Vec::with_capacity(prepared.len());
    for p in prepared {
        let sub = kb.subscribe(&p).map_err(|e| e.to_string())?;
        subs.push((p, sub));
    }
    // The seed diff: the full answer set at the subscription's epoch.
    for (p, sub) in &subs {
        for diff in sub.poll() {
            print_diff(out, p, &diff, options.json)?;
        }
    }
    if !options.json {
        writeln!(
            out,
            "% watching {} quer(ies); +fact(..)/-fact(..), blank line commits",
            subs.len()
        )?;
    }

    let stdin = std::io::stdin();
    let mut batch = UpdateBatch::new();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        if line.is_empty() || line == "commit" {
            if batch.is_empty() {
                continue;
            }
            match kb.apply(std::mem::take(&mut batch)) {
                Ok(outcome) => {
                    if !options.json {
                        writeln!(
                            out,
                            "% epoch {}: {} inserted, {} retracted",
                            outcome.epoch, outcome.inserted, outcome.retracted
                        )?;
                    }
                    for (p, sub) in &subs {
                        for diff in sub.poll() {
                            print_diff(out, p, &diff, options.json)?;
                        }
                    }
                }
                Err(e) => report!("% batch rejected: {e}"),
            }
            continue;
        }
        let (sign, text) = match line.split_at(1) {
            ("+", rest) => (true, rest),
            ("-", rest) => (false, rest),
            _ => {
                report!("% ignored (lines must start with + or -): {line}");
                continue;
            }
        };
        match nyaya::parse_fact(text) {
            Ok(fact) if sign => batch = batch.insert(fact),
            Ok(fact) => batch = batch.retract(fact),
            Err(e) => report!("% ignored: {e}"),
        }
    }
    Ok(())
}

/// SIGINT/SIGTERM latch for graceful `serve` shutdown. The handler only
/// flips the atomic (the one async-signal-safe thing it may do); the
/// serve loop polls it and runs the actual drain + flush.
static SHUTDOWN_SIGNAL: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
fn install_shutdown_signals() {
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN_SIGNAL.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        // libc is already linked by std; declaring `signal` directly
        // keeps the workspace dependency-free.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_shutdown_signals() {}

/// `nyaya serve <program.dlp> [--listen ADDR] [--net-workers N] …`
///
/// Serves the loaded knowledge base until SIGINT/SIGTERM or a client
/// `SHUTDOWN`, then drains in-flight connections and flushes the
/// durable ledger before exiting.
fn cmd_serve(kb: KnowledgeBase, options: &Options) -> Result<(), Failure> {
    use nyaya::serve::ServerConfig;

    let backend = std::sync::Arc::new(nyaya::KbBackend::new(std::sync::Arc::new(kb)));
    let mut config = ServerConfig::default();
    if options.net_workers > 0 {
        config.workers = options.net_workers;
    }
    let workers = config.workers;
    let server = nyaya::serve::serve(options.listen.as_str(), backend, config)
        .map_err(|e| format!("cannot listen on {}: {e}", options.listen))?;
    report!(
        "% serving on {} ({workers} worker(s)); \
         SIGINT or `nyaya client shutdown` stops it",
        server.local_addr()
    );
    install_shutdown_signals();
    let handle = server.handle();
    while !handle.is_shutting_down() {
        if SHUTDOWN_SIGNAL.load(std::sync::atomic::Ordering::SeqCst) {
            handle.shutdown();
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    report!("% shutting down: draining connections, flushing ledger");
    server.join();
    report!("% bye");
    Ok(())
}

/// `nyaya client <request> [--listen ADDR] [--at E] [--json]` — one
/// request against a running server: `ping`, `stats`, `shutdown`,
/// `apply` (reads `+fact`/`-fact` lines from stdin), or a query.
fn cmd_client(request: &str, options: &Options, out: &mut dyn Write) -> Result<(), Failure> {
    use nyaya::serve::Client;

    let mut client = Client::connect(options.listen.as_str())
        .map_err(|e| format!("cannot connect to {}: {e}", options.listen))?;
    match request {
        "ping" => {
            client.ping().map_err(|e| e.to_string())?;
            writeln!(out, "PONG")?;
        }
        "stats" => writeln!(out, "{}", client.stats().map_err(|e| e.to_string())?)?,
        "shutdown" => {
            client.shutdown_server().map_err(|e| e.to_string())?;
            writeln!(out, "% server is shutting down")?;
        }
        "apply" => {
            let stdin = std::io::stdin();
            let mut retracts = Vec::new();
            let mut inserts = Vec::new();
            for line in stdin.lock().lines() {
                let line = line.map_err(|e| e.to_string())?;
                let line = line.trim();
                match line.split_at(if line.is_empty() { 0 } else { 1 }) {
                    ("+", fact) => inserts.push(fact.trim().to_owned()),
                    ("-", fact) => retracts.push(fact.trim().to_owned()),
                    ("", _) => continue,
                    _ => report!("% ignored (lines must start with + or -): {line}"),
                }
            }
            let outcome = client
                .apply(&retracts, &inserts)
                .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "% epoch {}: {} inserted, {} retracted",
                outcome.epoch, outcome.inserted, outcome.retracted
            )?;
        }
        query => {
            let answer = client.query(query, options.at).map_err(|e| e.to_string())?;
            if options.json {
                writeln!(
                    out,
                    "{{\"epoch\":{},\"backend\":\"{}\",\"complete\":{},\"tuples\":{}}}",
                    answer.epoch,
                    json_escape(&answer.backend),
                    answer.complete,
                    tuples_json(&answer.tuples)
                )?;
            } else {
                writeln!(
                    out,
                    "% epoch {}, backend {}, {} answer(s)",
                    answer.epoch,
                    answer.backend,
                    answer.tuples.len()
                )?;
                for tuple in &answer.tuples {
                    writeln!(out, "{}", tuple.join(", "))?;
                }
            }
        }
    }
    Ok(())
}

/// One subscription diff, as text (`+`/`-` lines) or one JSON line.
fn print_diff(
    out: &mut dyn Write,
    query: &PreparedQuery,
    diff: &AnswerDiff,
    json: bool,
) -> io::Result<()> {
    let head = query.query().head_pred;
    if json {
        writeln!(
            out,
            "{{\"epoch\":{},\"query\":\"{}\",\"added\":{},\"removed\":{}}}",
            diff.epoch,
            json_escape(&head.to_string()),
            tuples_json(&diff.added),
            tuples_json(&diff.removed)
        )?;
        return Ok(());
    }
    writeln!(
        out,
        "% epoch {}: {} +{} -{}",
        diff.epoch,
        head,
        diff.added.len(),
        diff.removed.len()
    )?;
    let row = |tuple: &[Term]| {
        tuple
            .iter()
            .map(Term::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    for tuple in &diff.added {
        writeln!(out, "+ {head}({})", row(tuple))?;
    }
    for tuple in &diff.removed {
        writeln!(out, "- {head}({})", row(tuple))?;
    }
    Ok(())
}

// ---- JSON emission (hand-rolled: the build environment has no serde) ----

/// Tuples as a JSON array of string arrays.
fn tuples_json<T: std::fmt::Display>(tuples: impl IntoIterator<Item = impl AsRef<[T]>>) -> String {
    let rows: Vec<String> = tuples
        .into_iter()
        .map(|tuple| {
            let terms: Vec<String> = tuple
                .as_ref()
                .iter()
                .map(|t| format!("\"{}\"", json_escape(&t.to_string())))
                .collect();
            format!("[{}]", terms.join(","))
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// The `--json` document: per-query answers plus the knowledge base's
/// lifetime counters, for monitoring and scripting.
fn answers_to_json(kb: &KnowledgeBase, results: &[(PreparedQuery, Answers)]) -> String {
    // Snapshot the counters before the per-query rewriting lookups below:
    // those lookups are display plumbing, and the emitted stats must
    // describe the user's workload, not this function's own cache traffic.
    let stats = kb.stats();
    let mut out = String::from("{\"queries\":[");
    for (i, (prepared, answers)) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"query\":\"{}\",\"backend\":\"{}\",\"complete\":{},",
            json_escape(&prepared.query().to_string()),
            json_escape(answers.backend),
            answers.complete
        ));
        // Same guard as the text path: never *compute* a compiled form
        // just for display — report the one the backend actually ran.
        if answers.backend == "program" {
            match kb.program(prepared) {
                Ok(p) => out.push_str(&format!(
                    "\"rewriting\":null,\"program\":{{\"rules\":{},\"atoms\":{},\"strata\":{},\
                     \"estimated_dnf\":{}}},",
                    p.program.num_rules(),
                    p.program.total_atoms(),
                    p.stats.program_strata,
                    p.estimated_dnf
                )),
                Err(_) => out.push_str("\"rewriting\":null,\"program\":null,"),
            }
        } else {
            let rewriting = (kb.executor_kind() != ExecutorKind::Chase)
                .then(|| kb.rewriting(prepared))
                .and_then(Result::ok);
            match rewriting {
                Some(r) => out.push_str(&format!(
                    "\"rewriting\":{{\"cqs\":{},\"atoms\":{},\"joins\":{}}},\"program\":null,",
                    r.ucq.size(),
                    r.ucq.length(),
                    r.ucq.width()
                )),
                None => out.push_str("\"rewriting\":null,\"program\":null,"),
            }
        }
        out.push_str(&format!("\"answers\":{}}}", tuples_json(&answers.tuples)));
    }
    out.push_str(&format!("],\"stats\":{}}}", stats.to_json()));
    out
}

/// The `--json` document for modifier queries (`--where`/`--order-by`/
/// aggregates): row order is part of the answer, so rows are emitted as
/// an ordered array instead of the set-shaped `answers`.
fn rows_to_json(kb: &KnowledgeBase, results: &[(PreparedQuery, Vec<Vec<Term>>)]) -> String {
    let stats = kb.stats();
    let mut out = String::from("{\"queries\":[");
    for (i, (prepared, rows)) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"query\":\"{}\",\"rows\":{}}}",
            json_escape(&prepared.query().to_string()),
            tuples_json(rows)
        ));
    }
    out.push_str(&format!("],\"stats\":{}}}", stats.to_json()));
    out
}
