//! Server specifications and GPU pricing (paper §6.1.1).
//!
//! The paper prices Server-I (4× RTX 6000 Ada) at $3.96/hour and
//! Server-II (RTX 3080, 10 GB) at $0.18/hour, quoting a community cloud
//! vendor as of June 2024. These prices parameterise the cost-savings
//! metric `S`; the metric itself lives in `freeride-core`.

use freeride_gpu::MemBytes;
use freeride_sim::SimDuration;

/// A purchasable execution platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Rental price in dollars per hour.
    pub price_per_hour: f64,
    /// GPU memory, if the server has a GPU.
    pub gpu_memory: Option<MemBytes>,
}

impl ServerSpec {
    /// Server-I: the 4× RTX 6000 Ada training server.
    pub const SERVER_I: ServerSpec = ServerSpec {
        name: "Server-I (4x RTX 6000 Ada)",
        price_per_hour: 3.96,
        gpu_memory: Some(MemBytes::from_gib(48)),
    };

    /// Server-II: the RTX 3080 side-task baseline.
    pub const SERVER_II: ServerSpec = ServerSpec {
        name: "Server-II (RTX 3080)",
        price_per_hour: 0.18,
        gpu_memory: Some(MemBytes::from_gib(10)),
    };

    /// Server-CPU: 8-core Xeon Platinum 8269Y (throughput comparison
    /// only; the paper does not price it).
    pub const SERVER_CPU: ServerSpec = ServerSpec {
        name: "Server-CPU (8-core Xeon)",
        price_per_hour: 0.04,
        gpu_memory: None,
    };

    /// Dollar cost of running this server for `time`.
    pub fn cost_of(&self, time: SimDuration) -> f64 {
        self.price_per_hour * time.as_secs_f64() / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_prices() {
        assert_eq!(ServerSpec::SERVER_I.price_per_hour, 3.96);
        assert_eq!(ServerSpec::SERVER_II.price_per_hour, 0.18);
        assert_eq!(
            ServerSpec::SERVER_II.gpu_memory,
            Some(MemBytes::from_gib(10))
        );
        assert_eq!(ServerSpec::SERVER_CPU.gpu_memory, None);
    }

    #[test]
    fn cost_is_linear_in_time() {
        let hour = SimDuration::from_secs(3600);
        assert!((ServerSpec::SERVER_I.cost_of(hour) - 3.96).abs() < 1e-12);
        assert!((ServerSpec::SERVER_I.cost_of(hour / 2) - 1.98).abs() < 1e-12);
        assert_eq!(ServerSpec::SERVER_I.cost_of(SimDuration::ZERO), 0.0);
    }
}
