//! Data tiers and their mapping to the DPHEP preservation levels.

use std::fmt;

/// The processing tiers of the synthetic experiments' data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataTier {
    /// Raw detector readout (hits and cells).
    Raw,
    /// Full reconstruction output (tracks, clusters, segments).
    Reco,
    /// Analysis Object Data: candidate physics objects only.
    Aod,
    /// Flat per-analysis ntuples.
    Ntuple,
}

impl DataTier {
    /// All tiers in processing order.
    pub fn all() -> [DataTier; 4] {
        [DataTier::Raw, DataTier::Reco, DataTier::Aod, DataTier::Ntuple]
    }

    /// Stable code for the binary codec.
    pub fn code(&self) -> u8 {
        match self {
            DataTier::Raw => 0,
            DataTier::Reco => 1,
            DataTier::Aod => 2,
            DataTier::Ntuple => 3,
        }
    }

    /// Inverse of [`DataTier::code`].
    pub fn from_code(code: u8) -> Option<DataTier> {
        Some(match code {
            0 => DataTier::Raw,
            1 => DataTier::Reco,
            2 => DataTier::Aod,
            3 => DataTier::Ntuple,
            _ => return None,
        })
    }

    /// Short name used in dataset paths.
    pub fn name(&self) -> &'static str {
        match self {
            DataTier::Raw => "raw",
            DataTier::Reco => "reco",
            DataTier::Aod => "aod",
            DataTier::Ntuple => "ntup",
        }
    }

    /// The tier a processing step starting from this tier produces.
    pub fn next(&self) -> Option<DataTier> {
        match self {
            DataTier::Raw => Some(DataTier::Reco),
            DataTier::Reco => Some(DataTier::Aod),
            DataTier::Aod => Some(DataTier::Ntuple),
            DataTier::Ntuple => None,
        }
    }
}

impl fmt::Display for DataTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for t in DataTier::all() {
            assert_eq!(DataTier::from_code(t.code()), Some(t));
        }
        assert_eq!(DataTier::from_code(99), None);
    }

    #[test]
    fn chain_order() {
        assert_eq!(DataTier::Raw.next(), Some(DataTier::Reco));
        assert_eq!(DataTier::Ntuple.next(), None);
        let mut t = DataTier::Raw;
        let mut steps = 0;
        while let Some(n) = t.next() {
            t = n;
            steps += 1;
        }
        assert_eq!(steps, 3);
    }
}
