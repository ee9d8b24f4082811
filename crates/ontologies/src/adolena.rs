//! A — an ADOLENA-like ontology (Abilities and Disabilities OntoLogy for
//! ENhancing Accessibility).
//!
//! Developed originally for the South African National Accessibility
//! Portal, ADOLENA describes abilities, disabilities and assistive devices.
//! Structurally it differs from S and U: many *qualified* existential
//! axioms link device classes to the abilities they assist with
//! (`Wheelchair ⊑ ∃assistsWith.LowerLimbMobility`), and disabilities to the
//! abilities they affect. Query elimination therefore helps only partially
//! (Table 1 shows reductions like 402 → 247 for q1, 103 → 92 for q2, and no
//! reduction at all for q3) — the concept atoms carrying query joins cannot
//! be dropped.

/// DL-Lite_R axioms of the A ontology.
pub(crate) const ADOLENA_DL: &str = "
% ---- ability taxonomy ----
PhysicalAbility [= Ability
CognitiveAbility [= Ability
SensoryAbility [= Ability
UpperLimbMobility [= PhysicalAbility
LowerLimbMobility [= PhysicalAbility
Speak [= PhysicalAbility
Hear [= SensoryAbility
See [= SensoryAbility
Walk [= LowerLimbMobility
Stand [= LowerLimbMobility
Grip [= UpperLimbMobility
Reach [= UpperLimbMobility
Lift [= UpperLimbMobility
Memory [= CognitiveAbility
Attention [= CognitiveAbility
Reading [= CognitiveAbility

% ---- disability taxonomy ----
PhysicalDisability [= Disability
CognitiveDisability [= Disability
SensoryDisability [= Disability
Quadriplegia [= PhysicalDisability
Paraplegia [= PhysicalDisability
Hemiplegia [= PhysicalDisability
Arthritis [= PhysicalDisability
Autism [= CognitiveDisability
Dyslexia [= CognitiveDisability
Amnesia [= CognitiveDisability
Deafness [= SensoryDisability
Blindness [= SensoryDisability
LowVision [= SensoryDisability

% ---- device taxonomy ----
MobilityDevice [= Device
HearingDevice [= Device
VisionDevice [= Device
CommunicationDevice [= Device
CognitiveDevice [= Device
Wheelchair [= MobilityDevice
PoweredWheelchair [= Wheelchair
Walker [= MobilityDevice
Crutch [= MobilityDevice
ProstheticLimb [= MobilityDevice
StairLift [= MobilityDevice
HearingAid [= HearingDevice
CochlearImplant [= HearingDevice
FmSystem [= HearingDevice
ScreenReader [= VisionDevice
BrailleDisplay [= VisionDevice
Magnifier [= VisionDevice
SpeechSynthesizer [= CommunicationDevice
TextPhone [= CommunicationDevice
SymbolBoard [= CommunicationDevice
MemoryAid [= CognitiveDevice
Planner [= CognitiveDevice

% ---- roles ----
% NOTE: deliberately no domain axiom for assistsWith — in ADOLENA the
% coverage direction is Device ⊑ ∃assistsWith, which lets elimination drop
% the role atom when its second argument is unshared (q1) but not the
% Device atom (q2–q5), matching Table 1's partial reductions.
exists assistsWith- [= Ability
exists affects [= Disability
exists affects- [= Ability
supportsAbility [= assistsWith
exists hasDevice [= Disability
exists hasDevice- [= Device

% ---- devices assist with abilities (qualified; AX differs here) ----
Wheelchair [= exists assistsWith.LowerLimbMobility
Walker [= exists assistsWith.Walk
Crutch [= exists assistsWith.Walk
ProstheticLimb [= exists assistsWith.UpperLimbMobility
StairLift [= exists assistsWith.LowerLimbMobility
HearingAid [= exists assistsWith.Hear
CochlearImplant [= exists assistsWith.Hear
FmSystem [= exists assistsWith.Hear
ScreenReader [= exists assistsWith.See
BrailleDisplay [= exists assistsWith.Reading
Magnifier [= exists assistsWith.See
SpeechSynthesizer [= exists assistsWith.Speak
TextPhone [= exists assistsWith.Hear
SymbolBoard [= exists assistsWith.Speak
MemoryAid [= exists assistsWith.Memory
Planner [= exists assistsWith.Attention

% ---- disabilities affect abilities (qualified) ----
Quadriplegia [= exists affects.UpperLimbMobility
Quadriplegia [= exists affects.LowerLimbMobility
Paraplegia [= exists affects.LowerLimbMobility
Hemiplegia [= exists affects.UpperLimbMobility
Arthritis [= exists affects.Grip
Autism [= exists affects.Attention
Dyslexia [= exists affects.Reading
Amnesia [= exists affects.Memory
Deafness [= exists affects.Hear
Blindness [= exists affects.See
LowVision [= exists affects.See

% ---- every device assists with something ----
Device [= exists assistsWith

% ---- disjointness ----
Device [= not Ability
Disability [= not Ability
";

/// The five A queries of Table 2 (verbatim).
pub const ADOLENA_QUERIES: [(&str, &str); 5] = [
    ("q1", "q(A) :- Device(A), assistsWith(A, B)."),
    (
        "q2",
        "q(A) :- Device(A), assistsWith(A, B), UpperLimbMobility(B).",
    ),
    (
        "q3",
        "q(A) :- Device(A), assistsWith(A, B), Hear(B), affects(C, B), Autism(C).",
    ),
    (
        "q4",
        "q(A) :- Device(A), assistsWith(A, B), PhysicalAbility(B).",
    ),
    (
        "q5",
        "q(A) :- Device(A), assistsWith(A, B), PhysicalAbility(B), affects(C, B), \
         Quadriplegia(C).",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use nyaya_parser::{parse_dl_lite, parse_query};

    #[test]
    fn adolena_parses_and_is_linear() {
        let o = parse_dl_lite(ADOLENA_DL).unwrap();
        assert!(nyaya_core::classes::is_linear(&o.tgds));
        let n = nyaya_core::normalize(&o.tgds);
        assert!(!n.aux_predicates.is_empty(), "AX must differ from A");
    }

    #[test]
    fn queries_parse() {
        for (name, src) in ADOLENA_QUERIES {
            parse_query(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
