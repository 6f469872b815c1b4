//! Dense 2-D and 3-D grids of `f32` values.
//!
//! These hold the arrays the paper's kernels update. Out-of-range reads
//! return a configurable boundary value (the experiments' arrays are
//! fully determined by their boundary: every interior cell is
//! recomputed from already-recomputed neighbors).

/// A dense row-major 2-D grid.
#[derive(Clone, PartialEq, Debug)]
pub struct Grid2D {
    nx: usize,
    ny: usize,
    data: Vec<f32>,
    boundary: f32,
}

impl Grid2D {
    /// An `nx × ny` grid filled with `fill`, with out-of-range reads
    /// yielding `boundary`.
    pub fn new(nx: usize, ny: usize, fill: f32, boundary: f32) -> Self {
        assert!(nx > 0 && ny > 0, "grid must be non-empty");
        Grid2D {
            nx,
            ny,
            data: vec![fill; nx * ny],
            boundary,
        }
    }

    /// Extent along i.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Extent along j.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The boundary value returned by out-of-range [`Self::get`]s.
    pub fn boundary(&self) -> f32 {
        self.boundary
    }

    /// Read `(i, j)`; out-of-range returns the boundary value.
    #[inline]
    pub fn get(&self, i: i64, j: i64) -> f32 {
        if i < 0 || j < 0 || i >= self.nx as i64 || j >= self.ny as i64 {
            self.boundary
        } else {
            self.data[i as usize * self.ny + j as usize]
        }
    }

    /// Write `(i, j)` (must be in range).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        assert!(i < self.nx && j < self.ny, "grid write out of range");
        self.data[i * self.ny + j] = v;
    }

    /// Raw data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row `i` (all `ny` values), for bulk copies.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.nx, "grid row out of range");
        &mut self.data[i * self.ny..(i + 1) * self.ny]
    }

    /// Maximum absolute difference to another grid of the same shape.
    /// Cells with equal bits differ by 0; any other NaN makes the result
    /// NaN, so `<= tol` and `== 0.0` both fail on it.
    pub fn max_abs_diff(&self, other: &Grid2D) -> f32 {
        assert_eq!((self.nx, self.ny), (other.nx, other.ny), "shape mismatch");
        max_abs_diff(&self.data, &other.data)
    }
}

/// A dense 3-D grid, `k` fastest (matching the paper's `A(i,j,k)` sweep).
#[derive(Clone, PartialEq, Debug)]
pub struct Grid3D {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<f32>,
    boundary: f32,
}

impl Grid3D {
    /// An `nx × ny × nz` grid filled with `fill`.
    pub fn new(nx: usize, ny: usize, nz: usize, fill: f32, boundary: f32) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid must be non-empty");
        Grid3D {
            nx,
            ny,
            nz,
            data: vec![fill; nx * ny * nz],
            boundary,
        }
    }

    /// Extent along i.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Extent along j.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Extent along k.
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// The boundary value.
    pub fn boundary(&self) -> f32 {
        self.boundary
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.ny + j) * self.nz + k
    }

    /// Read `(i, j, k)`; out-of-range returns the boundary value.
    #[inline]
    pub fn get(&self, i: i64, j: i64, k: i64) -> f32 {
        if i < 0
            || j < 0
            || k < 0
            || i >= self.nx as i64
            || j >= self.ny as i64
            || k >= self.nz as i64
        {
            self.boundary
        } else {
            self.data[self.idx(i as usize, j as usize, k as usize)]
        }
    }

    /// Write `(i, j, k)` (must be in range).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: f32) {
        assert!(
            i < self.nx && j < self.ny && k < self.nz,
            "grid write out of range"
        );
        let idx = self.idx(i, j, k);
        self.data[idx] = v;
    }

    /// Raw data (row-major, k fastest).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable k-row at `(i, j)` (all `nz` values), for bulk copies.
    #[inline]
    pub fn row_mut(&mut self, i: usize, j: usize) -> &mut [f32] {
        assert!(i < self.nx && j < self.ny, "grid row out of range");
        let start = (i * self.ny + j) * self.nz;
        &mut self.data[start..start + self.nz]
    }

    /// Maximum absolute difference to another grid of the same shape,
    /// with [`Grid2D::max_abs_diff`]'s NaN rule.
    pub fn max_abs_diff(&self, other: &Grid3D) -> f32 {
        assert_eq!(
            (self.nx, self.ny, self.nz),
            (other.nx, other.ny, other.nz),
            "shape mismatch"
        );
        max_abs_diff(&self.data, &other.data)
    }
}

/// The largest `|a − b|` over paired cells. Bitwise-equal cells count 0
/// (so equal NaNs and equal infinities do); a NaN difference from any
/// other pair sticks, where `f32::max` would drop it.
fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            if x.to_bits() == y.to_bits() {
                0.0
            } else {
                (x - y).abs()
            }
        })
        .fold(0.0, |m: f32, d| if m.is_nan() || m >= d { m } else { d })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2d_basics() {
        let mut g = Grid2D::new(3, 4, 0.0, 1.5);
        g.set(1, 2, 7.0);
        assert_eq!(g.get(1, 2), 7.0);
        assert_eq!(g.get(0, 0), 0.0);
        assert_eq!(g.get(-1, 0), 1.5);
        assert_eq!(g.get(0, 4), 1.5);
        assert_eq!(g.get(3, 0), 1.5);
        assert_eq!(g.nx(), 3);
        assert_eq!(g.ny(), 4);
    }

    #[test]
    fn grid3d_basics() {
        let mut g = Grid3D::new(2, 3, 4, 0.0, -1.0);
        g.set(1, 2, 3, 9.0);
        assert_eq!(g.get(1, 2, 3), 9.0);
        assert_eq!(g.get(2, 0, 0), -1.0);
        assert_eq!(g.get(0, 0, -1), -1.0);
        assert_eq!(g.data().len(), 24);
    }

    #[test]
    fn max_abs_diff() {
        let a = Grid2D::new(2, 2, 1.0, 0.0);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(1, 1, 3.5);
        assert_eq!(a.max_abs_diff(&b), 2.5);
    }

    #[test]
    fn max_abs_diff_nan_on_one_side_is_nan() {
        let a = Grid3D::new(2, 2, 2, 1.0, 0.0);
        let mut b = a.clone();
        b.set(0, 1, 1, f32::NAN);
        assert!(a.max_abs_diff(&b).is_nan());
        assert!(b.max_abs_diff(&a).is_nan());
        // A NaN early on is not washed out by a larger later difference.
        b.set(1, 1, 1, 100.0);
        assert!(a.max_abs_diff(&b).is_nan());
        let mut c = Grid2D::new(3, 3, 1.0, 0.0);
        c.set(2, 2, f32::NAN);
        assert!(Grid2D::new(3, 3, 1.0, 0.0).max_abs_diff(&c).is_nan());
    }

    #[test]
    fn max_abs_diff_same_nan_bits_is_zero() {
        let mut a = Grid2D::new(2, 3, 1.0, 0.0);
        a.set(1, 2, f32::NAN);
        assert_eq!(a.max_abs_diff(&a.clone()), 0.0);
        // A NaN with another payload is a difference.
        let mut b = a.clone();
        b.set(1, 2, f32::from_bits(f32::NAN.to_bits() | 1));
        assert!(a.max_abs_diff(&b).is_nan());
    }

    #[test]
    fn max_abs_diff_infinities() {
        let mut a = Grid2D::new(2, 2, 1.0, 0.0);
        a.set(0, 0, f32::INFINITY);
        a.set(1, 1, f32::NEG_INFINITY);
        assert_eq!(a.max_abs_diff(&a.clone()), 0.0);
        let mut b = a.clone();
        b.set(0, 0, f32::NEG_INFINITY);
        assert_eq!(a.max_abs_diff(&b), f32::INFINITY);
        let mut c = a.clone();
        c.set(1, 1, 5.0);
        assert_eq!(a.max_abs_diff(&c), f32::INFINITY);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_out_of_range_panics() {
        Grid2D::new(2, 2, 0.0, 0.0).set(2, 0, 1.0);
    }

    #[test]
    fn k_fastest_layout() {
        let mut g = Grid3D::new(2, 2, 2, 0.0, 0.0);
        g.set(0, 0, 1, 1.0);
        g.set(0, 1, 0, 2.0);
        g.set(1, 0, 0, 3.0);
        assert_eq!(g.data()[1], 1.0);
        assert_eq!(g.data()[2], 2.0);
        assert_eq!(g.data()[4], 3.0);
    }
}
