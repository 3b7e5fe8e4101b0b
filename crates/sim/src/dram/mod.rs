//! DDR5 DRAM subsystem: address mapping, banks, channels.
//!
//! The organisation follows Table 5: 4 channels of DDR5-3200 with 4 ranks
//! of 8 Gb x16 devices. Each channel is modelled as a 32-bit subchannel
//! whose BL16 burst moves exactly one 64 B cache line, so peak bandwidth
//! is 12.8 GB/s per channel (51.2 GB/s system) — the envelope within
//! which the paper's MSHR-throughput bottleneck forms.

pub mod bank;
pub mod channel;
pub mod mapping;

pub use bank::DramCycle;
pub use channel::{Channel, ReadReturn};
pub use mapping::{AddressMapping, DramCoord, MappingScheme};

use crate::config::DramConfig;
use crate::stats::ChannelStats;
use crate::types::{Addr, SliceId};

/// The full multi-channel DRAM system.
///
/// The caller (the `System`) is responsible for clock-domain crossing:
/// it calls [`DramSystem::tick`] once per DRAM clock period.
#[derive(Clone)]
pub struct DramSystem {
    channels: Vec<Channel>,
    mapping: AddressMapping,
    returns_scratch: Vec<ReadReturn>,
}

impl DramSystem {
    pub fn new(cfg: DramConfig, scheme: MappingScheme) -> Self {
        let mapping = AddressMapping::new(&cfg, scheme);
        DramSystem {
            channels: (0..cfg.channels).map(|i| Channel::new(cfg, i)).collect(),
            mapping,
            returns_scratch: Vec::with_capacity(64),
        }
    }

    /// Channel index that will service `line_addr`.
    pub fn channel_of(&self, line_addr: Addr) -> usize {
        self.mapping.decode(line_addr).channel
    }

    /// Attempts to enqueue a fill read. Returns false when the channel
    /// read queue is full (the caller must retry later).
    pub fn enqueue_read(&mut self, line_addr: Addr, slice: SliceId) -> bool {
        let coord = self.mapping.decode(line_addr);
        self.channels[coord.channel].enqueue_read(line_addr, coord, slice)
    }

    /// Attempts to enqueue a write-back.
    pub fn enqueue_write(&mut self, line_addr: Addr) -> bool {
        let coord = self.mapping.decode(line_addr);
        self.channels[coord.channel].enqueue_write(line_addr, coord)
    }

    /// Whether the channel owning `line_addr` can accept a read now.
    pub fn can_accept_read(&self, line_addr: Addr) -> bool {
        self.channels[self.channel_of(line_addr)].can_accept_read()
    }

    /// Whether the channel owning `line_addr` can accept a write now.
    pub fn can_accept_write(&self, line_addr: Addr) -> bool {
        self.channels[self.channel_of(line_addr)].can_accept_write()
    }

    /// Advances every channel one DRAM cycle; returns completed reads.
    pub fn tick(&mut self) -> &[ReadReturn] {
        self.returns_scratch.clear();
        for ch in &mut self.channels {
            ch.tick(&mut self.returns_scratch);
        }
        &self.returns_scratch
    }

    /// True when all queues and pending returns are empty.
    pub fn is_idle(&self) -> bool {
        self.channels.iter().all(|c| c.is_idle())
    }

    /// Event bound for the fast-forward engine, in DRAM cycles: the
    /// earliest [`Channel::next_event`] over all channels (they share
    /// one command clock). `None` when every channel is drained and
    /// refresh-free. Each channel serves its cached bound, so only the
    /// channels that changed since their last computation rescan their
    /// queues.
    pub fn next_event(&mut self) -> Option<DramCycle> {
        self.channels
            .iter_mut()
            .filter_map(Channel::next_event)
            .min()
    }

    /// Fast-forwards all channels `ticks` pure-clock-advance DRAM
    /// cycles (validated against [`DramSystem::next_event`] by the
    /// caller). Every channel's cached bound stays valid.
    pub fn skip(&mut self, ticks: DramCycle) {
        if ticks == 0 {
            return;
        }
        for ch in &mut self.channels {
            ch.skip(ticks);
        }
    }

    /// Copies per-channel statistics out.
    pub fn stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(|c| c.stats.clone()).collect()
    }

    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::LINE_BYTES;

    #[test]
    fn reads_route_to_decoded_channel() {
        let mut cfg = DramConfig::table5();
        cfg.refresh = false;
        let mut d = DramSystem::new(cfg, MappingScheme::RoBaRaCoCh);
        for line in 0..8u64 {
            let addr = line * LINE_BYTES;
            assert_eq!(d.channel_of(addr), (line % 4) as usize);
            assert!(d.enqueue_read(addr, 0));
        }
        let mut got = Vec::new();
        for _ in 0..2000 {
            got.extend_from_slice(d.tick());
            if got.len() == 8 {
                break;
            }
        }
        assert_eq!(got.len(), 8);
        assert!(d.is_idle());
    }

    #[test]
    fn four_channels_run_in_parallel() {
        let mut cfg = DramConfig::table5();
        cfg.refresh = false;
        let mut d = DramSystem::new(cfg, MappingScheme::RoBaRaCoCh);
        // One read per channel: total completion time should be about the
        // single-read latency, not 4x it.
        for line in 0..4u64 {
            assert!(d.enqueue_read(line * LINE_BYTES, 0));
        }
        let mut cycles = 0;
        let mut got = 0;
        while got < 4 {
            got += d.tick().len();
            cycles += 1;
            assert!(cycles < 500);
        }
        let t = cfg.timing;
        let single = 1 + t.trcd + t.cl + t.tbl + 2;
        assert!(
            cycles as u64 <= single + 4,
            "parallel channels took {cycles} cycles vs single {single}"
        );
    }
}
