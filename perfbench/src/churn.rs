//! The seeded request stream of the `plan-churn` workload: `paper
//! serve` wire lines mixing `grid3`, `strip2` and loop-nest `src`
//! requests, overlap and blocking modes, explicit and `auto` tile
//! heights, and both transports. About three in four are compile jobs
//! and one in four executes a tiny 2-rank grid. One line in eight
//! repeats one of the last sixteen (a cache hit at the service's
//! capacity of 32); every other line is drawn from a space of millions
//! of keys, so it is almost always new. Explicit tile heights give 16 to
//! 256 pipeline steps.

use std::collections::VecDeque;
use sweep::config::Mix64;

/// One wire line, whether it is an execute job, and whether it repeats
/// an earlier line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Line {
    /// The `key=value` request.
    pub text: String,
    /// Execute (true) or compile-only (false).
    pub execute: bool,
    /// A repeat of one of the recent lines.
    pub repeat: bool,
}

/// See the module docs.
pub struct Churn {
    rng: Mix64,
    recent: VecDeque<Line>,
}

const RECENT: usize = 16;
const KERNELS_3D: [&str; 4] = ["paper3d", "relax3d", "fused3d", "longestpath3d"];
const KERNELS_2D: [&str; 2] = ["example1", "smooth2d"];
const MODES: [&str; 2] = ["overlap", "blocking"];
const TRANSPORTS: [&str; 2] = ["shared-slots", "mpsc"];

impl Churn {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Churn {
            rng: Mix64::new(seed ^ 0x5eed_c4a2_0000_0001),
            recent: VecDeque::with_capacity(RECENT),
        }
    }

    /// The next line.
    pub fn next_line(&mut self) -> Line {
        if !self.recent.is_empty() && self.rng.next_u64().is_multiple_of(8) {
            let i = (self.rng.next_u64() % self.recent.len() as u64) as usize;
            return Line {
                repeat: true,
                ..self.recent[i].clone()
            };
        }
        let line = if self.rng.next_u64().is_multiple_of(4) {
            self.execute()
        } else {
            match self.rng.next_u64() % 10 {
                0..=3 => self.grid3(),
                4..=6 => self.strip2(),
                7 | 8 => self.src3(),
                _ => self.src2(),
            }
        };
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(line.clone());
        line
    }

    fn v(&mut self, extent: i64) -> String {
        if self.rng.next_u64().is_multiple_of(3) {
            "auto".into()
        } else {
            // 16 to 256 pipeline steps: enough analysis work that a
            // compile outweighs the queue hop around it.
            let steps = self.rng.range_i64(16, 256).min(extent);
            ((extent + steps - 1) / steps).to_string()
        }
    }

    fn common(&mut self, kernels: &[&str]) -> String {
        format!(
            "kernel={} mode={} transport={}",
            self.rng.pick(kernels),
            self.rng.pick(&MODES),
            self.rng.pick(&TRANSPORTS)
        )
    }

    fn execute(&mut self) -> Line {
        let nx = 2 * self.rng.range_i64(1, 3);
        let ny = self.rng.range_i64(2, 6);
        let nz = self.rng.range_i64(32, 2048);
        let v = self.v(nz);
        let rest = self.common(&KERNELS_3D);
        Line {
            text: format!("workload=grid3 nx={nx} ny={ny} nz={nz} pi=2 pj=1 v={v} {rest}"),
            execute: true,
            repeat: false,
        }
    }

    fn grid3(&mut self) -> Line {
        let nx = *self.rng.pick(&[4, 8, 12, 16]);
        let ny = *self.rng.pick(&[4, 8, 12, 16]);
        let pi = *self.rng.pick(&[1, 2, 4]);
        let pj = *self.rng.pick(&[1, 2]);
        let nz = self.rng.range_i64(16, 4096);
        let v = self.v(nz);
        let rest = self.common(&KERNELS_3D);
        Line {
            text: format!("workload=grid3 nx={nx} ny={ny} nz={nz} pi={pi} pj={pj} v={v} {rest}"),
            execute: false,
            repeat: false,
        }
    }

    fn strip2(&mut self) -> Line {
        let ranks = *self.rng.pick(&[1, 2, 4]);
        let ny = ranks * self.rng.range_i64(1, 8);
        let nx = self.rng.range_i64(16, 4096);
        let v = self.v(nx);
        let rest = self.common(&KERNELS_2D);
        Line {
            text: format!("workload=strip2 nx={nx} ny={ny} ranks={ranks} v={v} {rest}"),
            execute: false,
            repeat: false,
        }
    }

    fn src3(&mut self) -> Line {
        let (pi, pj) = (*self.rng.pick(&[1, 2]), *self.rng.pick(&[1, 2]));
        let n1 = pi * self.rng.range_i64(1, 8);
        let n2 = pj * self.rng.range_i64(1, 8);
        let n3 = self.rng.range_i64(16, 2048);
        let src = format!(
            "FOR i1 = 1 TO {n1} DO\\n  FOR i2 = 1 TO {n2} DO\\n    FOR i3 = 1 TO {n3} DO\\n      \
             A(i1, i2, i3) = sqrt(A(i1-1, i2, i3)) + sqrt(A(i1, i2-1, i3)) + sqrt(A(i1, i2, i3-1))\\n    \
             ENDFOR\\n  ENDFOR\\nENDFOR\\n"
        );
        let v = self.v(n3);
        let rest = self.common(&KERNELS_3D);
        Line {
            text: format!("workload=src procs={pi},{pj} src=\"{src}\" v={v} {rest}"),
            execute: false,
            repeat: false,
        }
    }

    fn src2(&mut self) -> Line {
        let ranks = *self.rng.pick(&[1, 2, 4]);
        let n1 = self.rng.range_i64(16, 2048);
        let n2 = ranks * self.rng.range_i64(1, 8);
        let src = format!(
            "FOR i1 = 1 TO {n1} DO\\n  FOR i2 = 1 TO {n2} DO\\n    \
             A(i1, i2) = A(i1-1, i2-1) + A(i1-1, i2) + A(i1, i2-1)\\n  ENDFOR\\nENDFOR\\n"
        );
        let v = self.v(n1);
        let rest = self.common(&KERNELS_2D);
        Line {
            text: format!("workload=src procs={ranks} src=\"{src}\" v={v} {rest}"),
            execute: false,
            repeat: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planc::PlanRequest;

    #[test]
    fn same_seed_same_stream_and_every_line_compiles() {
        let (mut a, mut b) = (Churn::new(7), Churn::new(7));
        let (mut execs, mut repeats) = (0, 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..400 {
            let line = a.next_line();
            assert_eq!(line, b.next_line());
            let req = PlanRequest::parse_kv(&line.text).expect("parses");
            planc::compile(&req).unwrap_or_else(|e| panic!("{}: {e}", line.text));
            execs += line.execute as usize;
            repeats += line.repeat as usize;
            let new = seen.insert(line.text.clone());
            assert!(new || line.repeat, "unflagged repeat: {}", line.text);
        }
        assert!((60..140).contains(&execs), "{execs} execute jobs of 400");
        assert!((25..75).contains(&repeats), "{repeats} repeats of 400");
        assert_ne!(Churn::new(8).next_line(), Churn::new(7).next_line());
    }
}
