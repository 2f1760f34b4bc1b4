//! Units and physical constants.
//!
//! Natural units with energies in GeV, lengths in millimetres and times in
//! nanoseconds, following the conventions used by the LHC experiments'
//! event data models.

/// One giga-electronvolt — the base energy unit. All momenta and masses in
/// the toolkit are expressed in GeV.
pub const GEV: f64 = 1.0;

/// One mega-electronvolt in GeV.
pub const MEV: f64 = 1.0e-3;

/// One tera-electronvolt in GeV.
pub const TEV: f64 = 1.0e3;

/// Speed of light in mm/ns. Used to convert decay proper times into
/// laboratory flight distances.
pub const C_MM_PER_NS: f64 = 299.792_458;

/// ħc in GeV·mm, used to convert resonance widths into lifetimes.
pub const HBAR_C_GEV_MM: f64 = 1.973_269_804e-13;

/// ħ in GeV·ns: `τ [ns] = HBAR_GEV_NS / Γ [GeV]`.
pub const HBAR_GEV_NS: f64 = 6.582_119_569e-16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_ratios() {
        assert_eq!(TEV, 1000.0 * GEV);
        assert_eq!(GEV, 1000.0 * MEV);
    }
}
