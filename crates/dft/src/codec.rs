//! [`Codec`] impls for DFT products and configs.
//!
//! Scan/ATPG state is part of every flow checkpoint: `ScanReport` and
//! `AtpgResult` are stage products, `ScanConfig`/`AtpgConfig` travel
//! inside the durable job spec so a restarted farm re-runs remaining
//! stages with the *exact* options the job was enqueued with. Test
//! patterns (`Vec<bool>` per pattern) are bit-packed — a 64-flop
//! pattern costs 8 bytes + length prefix on disk, not 64.

use camsoc_netlist::codec::{Codec, CodecError, Decoder, Encoder};
use camsoc_netlist::graph::InstanceId;
use camsoc_par::Parallelism;

use crate::atpg::{AtpgConfig, AtpgResult, Pattern};
use crate::fsim::{FsimMode, FsimStats};
use crate::scan::{ScanConfig, ScanReport};

impl Codec for ScanConfig {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.num_chains);
        e.put_str(&self.scan_enable);
        e.put_str(&self.scan_in_prefix);
        e.put_str(&self.scan_out_prefix);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ScanConfig {
            num_chains: d.get_usize()?,
            scan_enable: d.get_str()?,
            scan_in_prefix: d.get_str()?,
            scan_out_prefix: d.get_str()?,
        })
    }
}

impl Codec for ScanReport {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.scan_flops);
        self.chains.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ScanReport {
            scan_flops: d.get_usize()?,
            chains: Vec::<Vec<InstanceId>>::decode(d)?,
        })
    }
}

impl Codec for FsimMode {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            FsimMode::Cached => 0,
            FsimMode::Uncached => 1,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(FsimMode::Cached),
            1 => Ok(FsimMode::Uncached),
            t => Err(CodecError::Corrupt(format!("fsim mode tag {t:#04x}"))),
        }
    }
}

impl Codec for FsimStats {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.faults_simulated);
        e.put_usize(self.gate_evals);
        e.put_usize(self.early_exits);
        e.put_usize(self.allocations);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(FsimStats {
            faults_simulated: d.get_usize()?,
            gate_evals: d.get_usize()?,
            early_exits: d.get_usize()?,
            allocations: d.get_usize()?,
        })
    }
}

impl Codec for AtpgConfig {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(self.seed);
        e.put_usize(self.max_random_blocks);
        e.put_usize(self.stall_blocks);
        e.put_usize(self.podem_backtrack_limit);
        self.podem_fault_cap.encode(e);
        self.fault_sample.encode(e);
        self.parallelism.encode(e);
        self.fsim_mode.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(AtpgConfig {
            seed: d.get_u64()?,
            max_random_blocks: d.get_usize()?,
            stall_blocks: d.get_usize()?,
            podem_backtrack_limit: d.get_usize()?,
            podem_fault_cap: Option::<usize>::decode(d)?,
            fault_sample: Option::<usize>::decode(d)?,
            parallelism: Parallelism::decode(d)?,
            fsim_mode: FsimMode::decode(d)?,
        })
    }
}

impl Codec for AtpgResult {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.total_faults);
        e.put_usize(self.detected);
        e.put_usize(self.untestable);
        e.put_usize(self.aborted);
        e.put_usize(self.not_attempted);
        e.put_usize(self.patterns.len());
        for p in &self.patterns {
            e.put_bits(p);
        }
        e.put_usize(self.random_detected);
        e.put_usize(self.podem_detected);
        self.fsim_stats.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let total_faults = d.get_usize()?;
        let detected = d.get_usize()?;
        let untestable = d.get_usize()?;
        let aborted = d.get_usize()?;
        let not_attempted = d.get_usize()?;
        let n = d.get_len(1)?;
        let mut patterns: Vec<Pattern> = Vec::with_capacity(n);
        for _ in 0..n {
            patterns.push(d.get_bits()?);
        }
        let out = AtpgResult {
            total_faults,
            detected,
            untestable,
            aborted,
            not_attempted,
            patterns,
            random_detected: d.get_usize()?,
            podem_detected: d.get_usize()?,
            fsim_stats: FsimStats::decode(d)?,
        };
        // Bucket invariant the rest of the repo relies on; a sum that
        // overflows is as corrupt as one that misses the total.
        let sum = out
            .detected
            .checked_add(out.untestable)
            .and_then(|s| s.checked_add(out.aborted))
            .and_then(|s| s.checked_add(out.not_attempted));
        if sum != Some(out.total_faults) {
            return Err(CodecError::Corrupt(format!(
                "atpg buckets {}+{}+{}+{} != total {}",
                out.detected, out.untestable, out.aborted, out.not_attempted, out.total_faults
            )));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let mut e = Encoder::new();
        v.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = T::decode(&mut d).expect("decode");
        d.expect_end().expect("fully consumed");
        assert_eq!(&back, v);
    }

    #[test]
    fn configs_round_trip() {
        round_trip(&ScanConfig::default());
        round_trip(&ScanConfig {
            num_chains: 8,
            scan_enable: "se_π".into(),
            scan_in_prefix: "si".into(),
            scan_out_prefix: "so".into(),
        });
        round_trip(&AtpgConfig::default());
        round_trip(&AtpgConfig {
            podem_fault_cap: Some(12),
            fault_sample: Some(999),
            parallelism: Parallelism::Threads(4),
            fsim_mode: FsimMode::Uncached,
            ..AtpgConfig::default()
        });
    }

    #[test]
    fn atpg_result_round_trips_with_packed_patterns() {
        let patterns: Vec<Pattern> =
            (0..17).map(|i| (0..65usize).map(|j| (i + j) % 3 == 0).collect()).collect();
        round_trip(&AtpgResult {
            total_faults: 100,
            detected: 90,
            untestable: 4,
            aborted: 5,
            not_attempted: 1,
            patterns,
            random_detected: 70,
            podem_detected: 20,
            fsim_stats: FsimStats {
                faults_simulated: 1000,
                gate_evals: 123_456,
                early_exits: 17,
                allocations: 3,
            },
        });
    }

    #[test]
    fn broken_bucket_sum_is_corrupt() {
        let good = AtpgResult {
            total_faults: 10,
            detected: 9,
            untestable: 1,
            aborted: 0,
            not_attempted: 0,
            patterns: vec![],
            random_detected: 9,
            podem_detected: 0,
            fsim_stats: FsimStats::default(),
        };
        let mut e = Encoder::new();
        AtpgResult { total_faults: 11, ..good }.encode(&mut e);
        let bytes = e.into_bytes();
        assert!(matches!(
            AtpgResult::decode(&mut Decoder::new(&bytes)),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn overflowing_bucket_sum_is_corrupt() {
        let mut e = Encoder::new();
        AtpgResult {
            total_faults: 0,
            detected: usize::MAX,
            untestable: 1,
            aborted: 0,
            not_attempted: 0,
            patterns: vec![],
            random_detected: 0,
            podem_detected: 0,
            fsim_stats: FsimStats::default(),
        }
        .encode(&mut e);
        let bytes = e.into_bytes();
        assert!(matches!(
            AtpgResult::decode(&mut Decoder::new(&bytes)),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn scan_report_round_trips_empty_and_full() {
        round_trip(&ScanReport { scan_flops: 0, chains: vec![] });
        round_trip(&ScanReport {
            scan_flops: 5,
            chains: vec![vec![InstanceId(3), InstanceId(1)], vec![], vec![InstanceId(0)]],
        });
    }
}
