//! GPU memory sizes and per-device accounting.
//!
//! Memory is the resource that determines which bubbles a side task fits
//! into (paper §2.2: 3 GB–20+ GB available depending on stage) and the
//! resource that MPS caps enforce (paper §4.5, Fig. 8(b)).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// A size in bytes of GPU memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MemBytes(u64);

const BYTES_PER_MIB: u64 = 1 << 20;
const BYTES_PER_GIB: u64 = 1 << 30;

impl MemBytes {
    /// Zero bytes.
    pub const ZERO: MemBytes = MemBytes(0);

    /// Creates a size from raw bytes.
    #[inline]
    pub const fn from_bytes(bytes: u64) -> Self {
        MemBytes(bytes)
    }

    /// Creates a size from whole mebibytes.
    #[inline]
    pub const fn from_mib(mib: u64) -> Self {
        MemBytes(mib * BYTES_PER_MIB)
    }

    /// Creates a size from whole gibibytes.
    #[inline]
    pub const fn from_gib(gib: u64) -> Self {
        MemBytes(gib * BYTES_PER_GIB)
    }

    /// Creates a size from fractional gibibytes (e.g. the paper's 2.63 GB
    /// ResNet18 footprint).
    ///
    /// # Panics
    ///
    /// Panics if `gib` is negative or not finite.
    #[inline]
    pub fn from_gib_f64(gib: f64) -> Self {
        assert!(
            gib.is_finite() && gib >= 0.0,
            "memory size must be finite and non-negative, got {gib}"
        );
        MemBytes((gib * BYTES_PER_GIB as f64).round() as u64)
    }

    /// Raw bytes.
    #[inline]
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Fractional gibibytes.
    #[inline]
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / BYTES_PER_GIB as f64
    }

    /// Whether this is zero bytes.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: MemBytes) -> MemBytes {
        MemBytes(self.0.saturating_sub(rhs.0))
    }
}

impl Add for MemBytes {
    type Output = MemBytes;
    #[inline]
    fn add(self, rhs: MemBytes) -> MemBytes {
        MemBytes(self.0 + rhs.0)
    }
}
impl AddAssign for MemBytes {
    #[inline]
    fn add_assign(&mut self, rhs: MemBytes) {
        self.0 += rhs.0;
    }
}
impl Sub for MemBytes {
    type Output = MemBytes;
    #[inline]
    fn sub(self, rhs: MemBytes) -> MemBytes {
        MemBytes(self.0 - rhs.0)
    }
}
impl SubAssign for MemBytes {
    #[inline]
    fn sub_assign(&mut self, rhs: MemBytes) {
        self.0 -= rhs.0;
    }
}
impl Sum for MemBytes {
    fn sum<I: Iterator<Item = MemBytes>>(iter: I) -> MemBytes {
        iter.fold(MemBytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for MemBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= BYTES_PER_GIB {
            write!(f, "{:.2}GiB", self.as_gib_f64())
        } else if self.0 >= BYTES_PER_MIB {
            write!(f, "{:.1}MiB", self.0 as f64 / BYTES_PER_MIB as f64)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// Why an allocation was refused.
///
/// Marked `#[non_exhaustive]`: new sharing backends bring new refusal
/// kinds, so downstream matches must carry a `_` arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum OomKind {
    /// The process would exceed its MPS memory cap; only this process is
    /// affected (paper §4.5: "other processes remain unaffected").
    ProcessCapExceeded,
    /// The device itself is out of physical memory.
    DeviceExhausted,
}

impl fmt::Display for OomKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OomKind::ProcessCapExceeded => write!(f, "process exceeded its MPS memory cap"),
            OomKind::DeviceExhausted => write!(f, "device out of memory"),
        }
    }
}

/// Tracks physical memory on one device and charges per process.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    total: MemBytes,
    used: MemBytes,
}

impl MemoryPool {
    /// Creates a pool with `total` physical capacity.
    pub fn new(total: MemBytes) -> Self {
        MemoryPool {
            total,
            used: MemBytes::ZERO,
        }
    }

    /// Physical capacity.
    pub fn total(&self) -> MemBytes {
        self.total
    }

    /// Bytes currently allocated (all processes).
    pub fn used(&self) -> MemBytes {
        self.used
    }

    /// Bytes currently free.
    pub fn free(&self) -> MemBytes {
        self.total - self.used
    }

    /// Attempts to take `bytes` from the pool.
    pub fn reserve(&mut self, bytes: MemBytes) -> Result<(), OomKind> {
        if self.used + bytes > self.total {
            return Err(OomKind::DeviceExhausted);
        }
        self.used += bytes;
        Ok(())
    }

    /// Returns `bytes` to the pool.
    ///
    /// # Panics
    ///
    /// Panics if more is released than was reserved — that is an accounting
    /// bug, not a runtime condition.
    pub fn release(&mut self, bytes: MemBytes) {
        assert!(
            bytes <= self.used,
            "releasing {bytes} but only {} reserved",
            self.used
        );
        self.used -= bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(MemBytes::from_gib(48).as_bytes(), 48 * BYTES_PER_GIB);
        assert!((MemBytes::from_gib_f64(2.63).as_gib_f64() - 2.63).abs() < 1e-9);
        assert_eq!(MemBytes::from_mib(1024), MemBytes::from_gib(1));
    }

    #[test]
    fn display_units() {
        assert_eq!(MemBytes::from_gib(2).to_string(), "2.00GiB");
        assert_eq!(MemBytes::from_mib(3).to_string(), "3.0MiB");
        assert_eq!(MemBytes::from_bytes(7).to_string(), "7B");
    }

    #[test]
    fn pool_reserve_release() {
        let mut p = MemoryPool::new(MemBytes::from_gib(10));
        assert!(p.reserve(MemBytes::from_gib(6)).is_ok());
        assert_eq!(p.free(), MemBytes::from_gib(4));
        assert_eq!(
            p.reserve(MemBytes::from_gib(5)),
            Err(OomKind::DeviceExhausted)
        );
        p.release(MemBytes::from_gib(2));
        assert!(p.reserve(MemBytes::from_gib(5)).is_ok());
        assert_eq!(p.used(), MemBytes::from_gib(9));
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn over_release_panics() {
        let mut p = MemoryPool::new(MemBytes::from_gib(1));
        p.release(MemBytes::from_bytes(1));
    }

    #[test]
    fn exact_fit_allowed() {
        let mut p = MemoryPool::new(MemBytes::from_gib(1));
        assert!(p.reserve(MemBytes::from_gib(1)).is_ok());
        assert!(p.free().is_zero());
    }

    #[test]
    fn sum_and_saturating() {
        let v = vec![MemBytes::from_gib(1), MemBytes::from_gib(2)];
        assert_eq!(v.into_iter().sum::<MemBytes>(), MemBytes::from_gib(3));
        assert_eq!(
            MemBytes::from_gib(1).saturating_sub(MemBytes::from_gib(2)),
            MemBytes::ZERO
        );
    }
}
