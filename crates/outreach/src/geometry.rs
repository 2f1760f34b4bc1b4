//! Display geometry descriptions.
//!
//! Table 1's "format of Geometry description" row: each experiment ships
//! its detector geometry for the event display in its own format. One
//! in-memory model, rendered to XML-ish or JSON.

use daspos_detsim::config::DetectorConfig;

use daspos_hep::json::Value;

/// One cylindrical detector volume (barrel layer, calorimeter shell…).
#[derive(Debug, Clone, PartialEq)]
pub struct Volume {
    /// Volume name (e.g. `"tracker-layer-3"`).
    pub name: String,
    /// Inner radius (mm).
    pub r_mm: f64,
    /// Half-length along the beam (mm).
    pub z_mm: f64,
    /// Subsystem: `"tracker"`, `"calo"`, `"muon"`.
    pub subsystem: String,
}

/// A complete display geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometryDescription {
    /// The experiment described.
    pub experiment: String,
    /// Solenoid field (T) — displays need it to draw curvature.
    pub field_tesla: f64,
    /// The volumes, inner to outer.
    pub volumes: Vec<Volume>,
}

impl GeometryDescription {
    /// Derive the display geometry from a detector configuration.
    pub fn from_detector(config: &DetectorConfig) -> GeometryDescription {
        let mut volumes = Vec::new();
        for (i, &r) in config.tracker.layer_radii_mm.iter().enumerate() {
            volumes.push(Volume {
                name: format!("tracker-layer-{i}"),
                r_mm: r,
                z_mm: r * config.tracker.eta_max.abs().max(1.0).sinh().min(6.0),
                subsystem: "tracker".to_string(),
            });
        }
        let calo_r = config
            .tracker
            .layer_radii_mm
            .last()
            .copied()
            .unwrap_or(1000.0)
            * 1.5;
        volumes.push(Volume {
            name: "calorimeter".to_string(),
            r_mm: calo_r,
            z_mm: calo_r * 3.0,
            subsystem: "calo".to_string(),
        });
        if config.muon.is_some() {
            volumes.push(Volume {
                name: "muon-system".to_string(),
                r_mm: calo_r * 2.0,
                z_mm: calo_r * 5.0,
                subsystem: "muon".to_string(),
            });
        }
        GeometryDescription {
            experiment: config.experiment.name().to_string(),
            field_tesla: config.field_tesla,
            volumes,
        }
    }

    /// Render as JSON (the CMS-style carrier).
    pub fn to_json(&self) -> String {
        let volumes: Vec<Value> = self
            .volumes
            .iter()
            .map(|v| {
                Value::object(vec![
                    ("name", Value::String(v.name.clone())),
                    ("r", Value::Number(v.r_mm)),
                    ("z", Value::Number(v.z_mm)),
                    ("subsystem", Value::String(v.subsystem.clone())),
                ])
            })
            .collect();
        Value::object(vec![
            ("experiment", Value::String(self.experiment.clone())),
            ("field", Value::Number(self.field_tesla)),
            ("volumes", Value::Array(volumes)),
        ])
        .to_json()
    }

    /// Outer radius of the whole detector (display framing).
    pub fn outer_radius(&self) -> f64 {
        self.volumes.iter().map(|v| v.r_mm).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daspos_detsim::config::Experiment;

    #[test]
    fn geometry_reflects_detector() {
        let geo = GeometryDescription::from_detector(&Experiment::Cms.detector());
        assert_eq!(geo.experiment, "cms");
        assert!(geo.field_tesla > 3.0);
        assert!(geo.volumes.iter().any(|v| v.subsystem == "muon"));
        assert!(geo.outer_radius() > 1000.0);
    }

    #[test]
    fn alice_has_no_muon_volume() {
        let geo = GeometryDescription::from_detector(&Experiment::Alice.detector());
        assert!(!geo.volumes.iter().any(|v| v.subsystem == "muon"));
    }

    #[test]
    fn json_render() {
        let geo = GeometryDescription::from_detector(&Experiment::Atlas.detector());
        let json = geo.to_json();
        let parsed = daspos_hep::json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("experiment").and_then(daspos_hep::json::Value::as_str),
            Some("atlas")
        );
        assert!(
            parsed
                .get("volumes")
                .and_then(daspos_hep::json::Value::as_array)
                .map(<[daspos_hep::json::Value]>::len)
                .unwrap_or(0)
                > 5
        );
    }

    #[test]
    fn volumes_ordered_inner_to_outer_within_tracker() {
        let geo = GeometryDescription::from_detector(&Experiment::Lhcb.detector());
        let radii: Vec<f64> = geo
            .volumes
            .iter()
            .filter(|v| v.subsystem == "tracker")
            .map(|v| v.r_mm)
            .collect();
        assert!(radii.windows(2).all(|w| w[0] < w[1]));
    }
}
