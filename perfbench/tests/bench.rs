//! Short runs of the real binary: every workload, both passes, must
//! print each metric `BENCHMARK.json` declares, with its unit, on a
//! correct result line.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Just enough JSON to read `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in {text}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => kv
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                loop {
                    self.ws();
                    let k = self.string();
                    self.eat(b':');
                    kv.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(kv);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()));
        self.i += w.len();
        v
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => {
                    let start = self.i - 1;
                    let len = match c {
                        0..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    self.i = start + len;
                    out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                }
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit)` of each metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Run the binary in `dir`, where a traced run writes `.bench_out`.
fn run(workload: &str, trace: u8, dir: &Path) -> (i32, String) {
    std::fs::create_dir_all(dir).expect("test directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(dir)
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.code().unwrap_or(-1), stdout)
}

fn scratch() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test")
}

#[test]
fn benchmark_json_matches_the_binary() {
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(perfbench::END_TO_END));
    assert_eq!(declared("per_layer"), own(perfbench::PER_LAYER));
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    let ours: Vec<&str> = perfbench::workloads::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(names, ours);
}

#[test]
fn short_runs_print_every_declared_metric() {
    let dir = scratch();
    for w in perfbench::workloads::Workload::ALL {
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let (code, stdout) = run(w.name(), trace, &dir);
            let last = stdout.lines().last().expect("a result line");
            assert_eq!(code, 0, "{} --trace {trace}: {stdout}", w.name());
            let result = Json::parse(last);
            assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), &Json::Bool(true), "{last}");
            assert_eq!(result.get("failed"), &Json::Num(0.0));
            let metrics = result.get("metrics");
            let want = declared(section);
            assert_eq!(metrics.keys().len(), want.len(), "{last}");
            for (name, unit) in want {
                let m = metrics.get(&name);
                assert_eq!(m.get("unit").str(), unit, "{name}");
                assert!(
                    matches!(m.get("value"), Json::Num(v) if v.is_finite()),
                    "{name}"
                );
            }
            assert!(stdout.starts_with("host {\"nproc\":"), "{stdout}");
            let detail = stdout
                .lines()
                .find_map(|l| l.strip_prefix("detail "))
                .expect("a detail line");
            let detail = Json::parse(detail);
            if trace == 0 {
                // Printed with its unit and sample count, but not gated.
                let p90 = detail.get("request_ms_p90");
                assert_eq!(p90.get("unit").str(), "ms");
                assert!(matches!(p90.get("samples"), Json::Num(n) if *n >= 1.0));
            } else {
                let file = dir
                    .join(".bench_out")
                    .join(format!("trace-{}-seed3.json", w.name()));
                let spans = std::fs::read_to_string(&file).expect("trace file written");
                let spans = Json::parse(&spans);
                assert!(!spans.get("traceEvents").items().is_empty());
                assert!(matches!(detail.get("spans"), Json::Num(n) if *n >= 1.0));
            }
        }
    }
}

#[test]
fn bad_usage_exits_nonzero_without_a_result() {
    let dir = scratch();
    let (code, stdout) = run("no-such-workload", 0, &dir);
    assert_eq!(code, 2);
    assert!(stdout.is_empty(), "{stdout}");
}
