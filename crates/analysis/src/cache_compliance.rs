//! Cache-compliance classification (§6.3).
//!
//! The paper's method: deliver *pairs* of queries for a fresh hostname to a
//! resolver, crafted to look like they come from clients in different /24s
//! within the same /16, while the authoritative returns scope 24, 16, or 0.
//! Whether the second query reaches the authoritative reveals how the
//! resolver honors scope. Resolvers that accept arbitrary client prefixes
//! additionally reveal their conveyed-prefix limits.
//!
//! The experiment driver performs the probes (see the `ecs-study` crate);
//! this module turns the observations into the paper's five classes, as the
//! [`ComplianceClass`] the `workload` populations plant.

use workload::ComplianceClass;

/// Raw observations from the paired-probe methodology for one resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComplianceObservation {
    /// Scope-24 trial: the second query (different /24, same /16) reached
    /// the authoritative (= the resolver treated it as a miss).
    pub second_arrived_scope24: bool,
    /// Scope-16 trial: the second query reached the authoritative.
    pub second_arrived_scope16: bool,
    /// Scope-0 trial: the second query reached the authoritative.
    pub second_arrived_scope0: bool,
    /// When we could submit arbitrary ECS: source prefix length the
    /// resolver conveyed upstream for a /32 client prefix.
    pub conveyed_for_32: Option<u8>,
    /// The upstream /32 prefix carried the *client-supplied* address (as
    /// opposed to a self-derived one, e.g. the jammed-last-byte resolvers
    /// that claim /32 of the sender). Only an echoed long prefix counts as
    /// the privacy-eroding "accepts >24 bits" class.
    pub echoed_long_prefix: bool,
    /// Source prefix length conveyed upstream for a /25 client prefix.
    pub conveyed_for_25: Option<u8>,
    /// The resolver sent a non-routable (private/loopback) prefix upstream
    /// even though our queries carried routable addresses.
    pub sent_private_prefix: bool,
}

/// Classifies one resolver's observations: `None` when they fit no class.
pub fn classify_compliance(obs: &ComplianceObservation) -> Option<ComplianceClass> {
    if obs.sent_private_prefix {
        return Some(ComplianceClass::PrivateMisconfig);
    }
    if let Some(len) = obs.conveyed_for_32 {
        if len > 24 && obs.echoed_long_prefix {
            return Some(ComplianceClass::AcceptsLong);
        }
        if len == 22 && obs.conveyed_for_25 == Some(22) {
            return Some(ComplianceClass::Cap22);
        }
    }
    match (
        obs.second_arrived_scope24,
        obs.second_arrived_scope16,
        obs.second_arrived_scope0,
    ) {
        // Scope honored: /24 scope forces a re-query, /16 and /0 are reused.
        (true, false, false) => Some(ComplianceClass::Correct),
        // Everything reused regardless of scope.
        (false, false, false) => Some(ComplianceClass::IgnoresScope),
        _ => None,
    }
}

/// A §6.3 verdict as reports print it: the class's name, or
/// `Unclassified` for observations that fit no class.
pub fn verdict_name(verdict: Option<ComplianceClass>) -> String {
    verdict.map_or_else(|| "Unclassified".to_string(), |class| format!("{class:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_resolver() {
        let obs = ComplianceObservation {
            second_arrived_scope24: true,
            second_arrived_scope16: false,
            second_arrived_scope0: false,
            conveyed_for_32: Some(24),
            conveyed_for_25: Some(24),
            echoed_long_prefix: false,
            sent_private_prefix: false,
        };
        assert_eq!(classify_compliance(&obs), Some(ComplianceClass::Correct));
    }

    #[test]
    fn correct_without_arbitrary_prefix_access() {
        // Closed resolvers tested only via two-forwarder pairs.
        let obs = ComplianceObservation {
            second_arrived_scope24: true,
            second_arrived_scope16: false,
            second_arrived_scope0: false,
            ..ComplianceObservation::default()
        };
        assert_eq!(classify_compliance(&obs), Some(ComplianceClass::Correct));
    }

    #[test]
    fn ignore_scope_resolver() {
        let obs = ComplianceObservation {
            second_arrived_scope24: false,
            second_arrived_scope16: false,
            second_arrived_scope0: false,
            ..ComplianceObservation::default()
        };
        assert_eq!(
            classify_compliance(&obs),
            Some(ComplianceClass::IgnoresScope)
        );
    }

    #[test]
    fn accepts_long_resolver() {
        let obs = ComplianceObservation {
            second_arrived_scope24: true,
            second_arrived_scope16: false,
            second_arrived_scope0: false,
            conveyed_for_32: Some(32),
            conveyed_for_25: Some(25),
            echoed_long_prefix: true,
            sent_private_prefix: false,
        };
        assert_eq!(
            classify_compliance(&obs),
            Some(ComplianceClass::AcceptsLong)
        );
    }

    #[test]
    fn jammed_full_is_not_accepts_long() {
        // A resolver that CLAIMS /32 but with a self-derived (jammed)
        // address is not forwarding client prefixes; its scope handling
        // decides the class.
        let obs = ComplianceObservation {
            second_arrived_scope24: false,
            second_arrived_scope16: false,
            second_arrived_scope0: false,
            conveyed_for_32: Some(32),
            conveyed_for_25: Some(32),
            echoed_long_prefix: false,
            sent_private_prefix: false,
        };
        assert_eq!(
            classify_compliance(&obs),
            Some(ComplianceClass::IgnoresScope)
        );
    }

    #[test]
    fn cap22_resolver() {
        let obs = ComplianceObservation {
            // The paired /24s share a /22, so the second query is reused.
            second_arrived_scope24: false,
            second_arrived_scope16: false,
            second_arrived_scope0: false,
            conveyed_for_32: Some(22),
            conveyed_for_25: Some(22),
            echoed_long_prefix: false,
            sent_private_prefix: false,
        };
        assert_eq!(classify_compliance(&obs), Some(ComplianceClass::Cap22));
    }

    #[test]
    fn private_misconfig_resolver() {
        let obs = ComplianceObservation {
            sent_private_prefix: true,
            ..ComplianceObservation::default()
        };
        assert_eq!(
            classify_compliance(&obs),
            Some(ComplianceClass::PrivateMisconfig)
        );
    }

    #[test]
    fn odd_observations_unclassified() {
        // Second query always re-queried — e.g. caching disabled.
        let obs = ComplianceObservation {
            second_arrived_scope24: true,
            second_arrived_scope16: true,
            second_arrived_scope0: true,
            ..ComplianceObservation::default()
        };
        assert_eq!(classify_compliance(&obs), None);
    }
}
