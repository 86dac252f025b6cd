//! Per-channel DRAM timing.

use amo_types::{BlockAddr, Cycle};

/// Timing model of one node's DRAM backend.
///
/// Blocks interleave across channels by block number. An access waits for
/// its channel to become free, occupies it for `occupancy` cycles, and
/// returns data `latency` cycles after it starts.
pub struct DramTimer {
    channel_free: Vec<Cycle>,
    latency: Cycle,
    occupancy: Cycle,
    line_bytes: u64,
}

impl DramTimer {
    /// Build a backend with `channels` channels.
    pub fn new(channels: usize, latency: Cycle, occupancy: Cycle, line_bytes: u64) -> Self {
        assert!(channels >= 1);
        assert!(line_bytes.is_power_of_two());
        DramTimer {
            channel_free: vec![0; channels],
            latency,
            occupancy,
            line_bytes,
        }
    }

    #[inline]
    fn channel_of(&self, block: BlockAddr) -> usize {
        ((block.0 / self.line_bytes) as usize) % self.channel_free.len()
    }

    /// Schedule an access to `block` at time `now`; returns the cycle the
    /// data is available (read) or durable (write).
    pub fn access(&mut self, now: Cycle, block: BlockAddr) -> Cycle {
        let ch = self.channel_of(block);
        let start = now.max(self.channel_free[ch]);
        self.channel_free[ch] = start + self.occupancy;
        start + self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer() -> DramTimer {
        DramTimer::new(16, 60, 8, 128)
    }

    #[test]
    fn idle_access_takes_latency() {
        let mut d = timer();
        assert_eq!(d.access(100, BlockAddr(0)), 160);
    }

    #[test]
    fn same_channel_accesses_queue() {
        let mut d = timer();
        // Blocks 0 and 16*128 map to the same channel (16 channels).
        let t1 = d.access(0, BlockAddr(0));
        let t2 = d.access(0, BlockAddr(16 * 128));
        assert_eq!(t1, 60);
        assert_eq!(t2, 68, "second access starts after 8-cycle occupancy");
    }

    #[test]
    fn different_channels_proceed_in_parallel() {
        let mut d = timer();
        let t1 = d.access(0, BlockAddr(0));
        let t2 = d.access(0, BlockAddr(128));
        assert_eq!(t1, 60);
        assert_eq!(t2, 60);
    }

    #[test]
    fn channel_frees_over_time() {
        let mut d = timer();
        d.access(0, BlockAddr(0));
        // By cycle 50 the channel (busy until 8) is free again.
        assert_eq!(d.access(50, BlockAddr(0)), 110);
    }
}
