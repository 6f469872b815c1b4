//! Output checks. Every operation the benchmark attempts passes through
//! a [`Tally`]; anything that is not a verified success counts as
//! failed, and one failure makes the run incorrect.

use stencil::grid::{Grid2D, Grid3D};

/// Attempted and failed operations of one run, with the first few
/// failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first failure messages (at most [`Tally::KEEP`]).
    pub errors: Vec<String>,
}

impl Tally {
    /// How many failure messages are kept.
    pub const KEEP: usize = 8;

    /// Count one operation; `ok == false` counts it failed with the
    /// message `why()`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
        ok
    }

    /// Count `n` operations that passed their checks.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one operation that ended in an error.
    pub fn error(&mut self, why: impl std::fmt::Display) {
        self.attempted += 1;
        self.fail(why.to_string());
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < Self::KEEP {
            self.errors.push(why);
        }
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < Self::KEEP {
                self.errors.push(e);
            }
        }
    }

    /// A reply's verification flag must be exactly `Some(true)`.
    pub fn verified(&mut self, verified: Option<bool>, what: &str) -> bool {
        self.check(verified == Some(true), || {
            format!("{what}: verified = {verified:?}")
        })
    }

    /// A returned 3-D grid must equal the reference bit for bit.
    pub fn grid3(&mut self, got: &Grid3D, want: &Grid3D, what: &str) -> bool {
        let same = (got.nx(), got.ny(), got.nz()) == (want.nx(), want.ny(), want.nz())
            && bitwise_equal(got.data(), want.data());
        self.check(same, || format!("{what}: grid differs from run_seq3d"))
    }

    /// A returned 2-D grid must equal the reference bit for bit.
    pub fn grid2(&mut self, got: &Grid2D, want: &Grid2D, what: &str) -> bool {
        let same = (got.nx(), got.ny()) == (want.nx(), want.ny())
            && bitwise_equal(got.data(), want.data());
        self.check(same, || format!("{what}: grid differs from run_seq2d"))
    }
}

fn bitwise_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::kernel::Relax3D;
    use stencil::seq::run_seq3d;

    #[test]
    fn corrupted_grid_counts_as_failed() {
        let want = run_seq3d(Relax3D::default(), 4, 4, 32, 1.0);
        let mut tally = Tally::default();
        assert!(tally.grid3(&want.clone(), &want, "clean"));
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        let mut bad = want.clone();
        let v = bad.get(2, 3, 17);
        bad.set(2, 3, 17, f32::from_bits(v.to_bits() ^ 1));
        assert!(!tally.grid3(&bad, &want, "corrupted"));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.errors[0].contains("corrupted"));
    }

    #[test]
    fn unverified_reply_counts_as_failed() {
        let mut tally = Tally::default();
        tally.verified(Some(true), "ok");
        tally.verified(None, "unchecked");
        tally.verified(Some(false), "wrong");
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }
}
