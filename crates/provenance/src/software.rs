//! Software-stack descriptions.
//!
//! Appendix A of the report asks each experiment to document, per data
//! lifecycle stage, *"the software package(s) required to access and
//! analyze the data"*, whether each is external, and *"which version of
//! the software is required"*. [`SoftwareStack`] is that answer as data.

use std::fmt;

/// The computing platform a software build targets. The RECAST risk the
/// report discusses — *"the full experimental code base must be migrated
/// to new computing platforms when such transitions become necessary"* —
/// is modelled as platform mismatches.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Platform(pub String);

impl Platform {
    /// The platform current productions run on.
    pub fn current() -> Platform {
        Platform("slc6-x86_64".to_string())
    }

    /// A successor platform for migration experiments.
    pub fn successor() -> Platform {
        Platform("el9-aarch64".to_string())
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// One versioned software package.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SoftwareVersion {
    /// Package name (e.g. `"daspos-reco"`).
    pub name: String,
    /// Version triple.
    pub major: u32,
    /// Minor version.
    pub minor: u32,
    /// Patch version.
    pub patch: u32,
    /// Whether the package is external to the experiment's own code base
    /// (Appendix A §5.6A distinguishes these).
    pub external: bool,
}

impl SoftwareVersion {
    /// Construct a package version.
    pub fn new(name: &str, major: u32, minor: u32, patch: u32) -> Self {
        SoftwareVersion {
            name: name.to_string(),
            major,
            minor,
            patch,
            external: false,
        }
    }

    /// Mark the package external.
    pub fn external(mut self) -> Self {
        self.external = true;
        self
    }

    /// Two versions are interface-compatible when they share a major
    /// version.
    pub fn compatible_with(&self, other: &SoftwareVersion) -> bool {
        self.name == other.name && self.major == other.major
    }

    /// Canonical `name-x.y.z[+ext]` rendering.
    pub fn render(&self) -> String {
        format!(
            "{}-{}.{}.{}{}",
            self.name,
            self.major,
            self.minor,
            self.patch,
            if self.external { "+ext" } else { "" }
        )
    }

    /// Parse the canonical rendering.
    pub fn parse(s: &str) -> Option<SoftwareVersion> {
        let (body, external) = match s.strip_suffix("+ext") {
            Some(b) => (b, true),
            None => (s, false),
        };
        let (name, version) = body.rsplit_once('-')?;
        let mut parts = version.split('.');
        let major = parts.next()?.parse().ok()?;
        let minor = parts.next()?.parse().ok()?;
        let patch = parts.next()?.parse().ok()?;
        if parts.next().is_some() || name.is_empty() {
            return None;
        }
        Some(SoftwareVersion {
            name: name.to_string(),
            major,
            minor,
            patch,
            external,
        })
    }
}

impl fmt::Display for SoftwareVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A complete software stack for one processing stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoftwareStack {
    /// The platform the stack was built for.
    pub platform: Platform,
    /// The packages, experiment code and externals alike.
    pub packages: Vec<SoftwareVersion>,
}

impl SoftwareStack {
    /// A stack on the current platform.
    pub fn on_current(packages: Vec<SoftwareVersion>) -> Self {
        SoftwareStack {
            platform: Platform::current(),
            packages,
        }
    }

    /// True when this stack can run on `platform` as-is.
    pub fn runs_on(&self, platform: &Platform) -> bool {
        self.platform == *platform
    }

    /// A migrated copy targeting a new platform (a *rebuild*: versions
    /// keep their majors so configs stay compatible, patch is bumped).
    pub fn migrated_to(&self, platform: Platform) -> SoftwareStack {
        SoftwareStack {
            platform,
            packages: self
                .packages
                .iter()
                .map(|p| SoftwareVersion {
                    patch: p.patch + 1,
                    ..p.clone()
                })
                .collect(),
        }
    }

    /// Canonical one-line rendering: `platform|pkg1;pkg2;…`.
    pub fn render(&self) -> String {
        let pkgs = self
            .packages
            .iter()
            .map(SoftwareVersion::render)
            .collect::<Vec<_>>()
            .join(";");
        format!("{}|{}", self.platform, pkgs)
    }

    /// Parse the canonical rendering.
    pub fn parse(s: &str) -> Option<SoftwareStack> {
        let (platform, pkgs) = s.split_once('|')?;
        let packages = pkgs
            .split(';')
            .filter(|p| !p.is_empty())
            .map(SoftwareVersion::parse)
            .collect::<Option<Vec<_>>>()?;
        Some(SoftwareStack {
            platform: Platform(platform.to_string()),
            packages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_render_parse_round_trip() {
        let v = SoftwareVersion::new("daspos-reco", 2, 4, 1);
        assert_eq!(SoftwareVersion::parse(&v.render()), Some(v.clone()));
        let e = SoftwareVersion::new("root-like", 6, 30, 2).external();
        assert_eq!(e.render(), "root-like-6.30.2+ext");
        assert_eq!(SoftwareVersion::parse(&e.render()), Some(e));
    }

    #[test]
    fn version_parse_rejects_malformed() {
        for bad in ["", "noversion", "x-1.2", "x-1.2.3.4", "-1.2.3", "x-a.b.c"] {
            assert!(SoftwareVersion::parse(bad).is_none(), "'{bad}' should fail");
        }
    }

    #[test]
    fn compatibility_is_major_based() {
        let a = SoftwareVersion::new("reco", 2, 0, 0);
        let b = SoftwareVersion::new("reco", 2, 9, 5);
        let c = SoftwareVersion::new("reco", 3, 0, 0);
        let d = SoftwareVersion::new("other", 2, 0, 0);
        assert!(a.compatible_with(&b));
        assert!(!a.compatible_with(&c));
        assert!(!a.compatible_with(&d));
    }

    #[test]
    fn stack_platform_gating() {
        let stack = SoftwareStack::on_current(vec![SoftwareVersion::new("gen", 1, 0, 0)]);
        assert!(stack.runs_on(&Platform::current()));
        assert!(!stack.runs_on(&Platform::successor()));
    }

    #[test]
    fn migration_keeps_majors() {
        let stack = SoftwareStack::on_current(vec![
            SoftwareVersion::new("gen", 1, 2, 3),
            SoftwareVersion::new("root-like", 6, 30, 2).external(),
        ]);
        let migrated = stack.migrated_to(Platform::successor());
        assert!(migrated.runs_on(&Platform::successor()));
        for (old, new) in stack.packages.iter().zip(&migrated.packages) {
            assert!(old.compatible_with(new));
            assert_eq!(new.patch, old.patch + 1);
        }
    }

    #[test]
    fn stack_render_parse_round_trip() {
        let stack = SoftwareStack::on_current(vec![
            SoftwareVersion::new("gen", 1, 2, 3),
            SoftwareVersion::new("conditions-db", 4, 0, 0).external(),
        ]);
        assert_eq!(SoftwareStack::parse(&stack.render()), Some(stack));
    }
}
