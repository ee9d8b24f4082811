//! V — a VICODI-like ontology of European history.
//!
//! The original VICODI ontology (EU project `vicodi.org`) is a large, almost
//! purely taxonomic DL-Lite ontology: concept hierarchies with essentially
//! no existential axioms. We reproduce that structure with subtree sizes
//! chosen so the rewriting sizes match Table 1 exactly:
//!
//! | query concept | closure size | Table 1 NY size |
//! |---|---|---|
//! | `Location` | 15 | 15 (q1) |
//! | `Military_Person` | 10 | 10 (q2) |
//! | `Time_Dependant_Relation` × `hasRelationMember` × `Event` | 12 × 2 × 3 | 72 (q3) |
//! | `Object` × `Symbol` | 37 × 5 | 185 (q4) |
//! | `Individual` × `Scientist` × `Discoverer` × `Inventor` | 5 × 3 × 2 × 1 | 30 (q5) |
//!
//! Because V has no existential axioms, factorization and query elimination
//! never fire: NY = NY⋆ for every query, exactly as in Table 1.

/// DL-Lite_R axioms of the V ontology.
pub(crate) const VICODI_DL: &str = "
% ---- Location subtree (15 concepts incl. root) ----
Settlement [= Location
Country [= Location
Region [= Location
Sea [= Location
River [= Location
Mountain [= Location
Castle [= Location
Battlefield [= Location
Province [= Location
Empire [= Location
Kingdom [= Location
City [= Settlement
Village [= Settlement
Harbour [= Settlement

% ---- Military_Person subtree (10) ----
General [= Military_Person
Admiral [= Military_Person
Soldier [= Military_Person
Knight [= Military_Person
Commander [= Military_Person
Officer [= Military_Person
Captain [= Officer
Colonel [= Officer
Marshal [= Officer

% ---- Time_Dependant_Relation subtree (12) ----
Alliance [= Time_Dependant_Relation
War [= Time_Dependant_Relation
Marriage_Relation [= Time_Dependant_Relation
Succession [= Time_Dependant_Relation
Vassalage [= Time_Dependant_Relation
Trade_Relation [= Time_Dependant_Relation
Occupation_Relation [= Time_Dependant_Relation
Coronation [= Time_Dependant_Relation
Rebellion [= Time_Dependant_Relation
Truce [= Time_Dependant_Relation
Crusade_Relation [= Time_Dependant_Relation

% ---- hasRelationMember role tree (2) ----
hasMainRelationMember [= hasRelationMember

% ---- Event subtree (3) ----
Battle [= Event
Council [= Event

% ---- Object subtree (37) ----
Artifact [= Object
Monument [= Object
Document [= Object
Weapon [= Object
Regalia [= Object
Textile_Object [= Object
Vessel [= Object
Painting [= Artifact
Sculpture [= Artifact
Relic [= Artifact
Coin [= Artifact
Seal [= Artifact
Medal [= Artifact
Obelisk [= Monument
Statue [= Monument
Triumphal_Arch [= Monument
Manuscript [= Document
Charter [= Document
Treaty_Document [= Document
Map [= Document
Book [= Document
Scroll [= Document
Sword [= Weapon
Cannon [= Weapon
Musket [= Weapon
Spear [= Weapon
Bow [= Weapon
Catapult [= Weapon
Crown [= Regalia
Throne [= Regalia
Ring [= Regalia
Chalice [= Regalia
Banner [= Textile_Object
Tapestry [= Textile_Object
Uniform [= Textile_Object
Galleon [= Vessel

% ---- Symbol subtree (5) ----
Flag [= Symbol
Coat_Of_Arms [= Symbol
Emblem [= Symbol
Insignia [= Symbol

% ---- Individual subtree (5) ----
Personage [= Individual
Organization [= Individual
Dynasty [= Individual
Tribe [= Individual

% ---- role fillers used by q5 (3 / 2 / 1) ----
Physicist [= Scientist
Chemist [= Scientist
Explorer [= Discoverer
";

/// The five V queries of Table 2 (verbatim).
pub const VICODI_QUERIES: [(&str, &str); 5] = [
    ("q1", "q(A) :- Location(A)."),
    (
        "q2",
        "q(A, B) :- Military_Person(A), hasRole(B, A), related(A, C).",
    ),
    (
        "q3",
        "q(A, B) :- Time_Dependant_Relation(A), hasRelationMember(A, B), Event(B).",
    ),
    ("q4", "q(A, B) :- Object(A), hasRole(A, B), Symbol(B)."),
    (
        "q5",
        "q(A) :- Individual(A), hasRole(A, B), Scientist(B), hasRole(A, C), \
         Discoverer(C), hasRole(A, D), Inventor(D).",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use nyaya_parser::{parse_dl_lite, parse_query};

    #[test]
    fn vicodi_parses_and_is_linear() {
        let o = parse_dl_lite(VICODI_DL).unwrap();
        assert!(nyaya_core::classes::is_linear(&o.tgds));
        assert!(o.tgds.iter().all(|t| t.is_full()), "V is purely taxonomic");
        // 14 + 9 + 11 + 1 + 2 + 36 + 4 + 4 + 3 = 84 inclusions
        assert_eq!(o.tgds.len(), 84);
    }

    #[test]
    fn queries_parse_with_expected_shapes() {
        for (name, src) in VICODI_QUERIES {
            let q = parse_query(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!q.body.is_empty());
        }
        let q5 = parse_query(VICODI_QUERIES[4].1).unwrap();
        assert_eq!(q5.body.len(), 7);
        assert_eq!(q5.width(), 9); // Table 1: 270 width / 30 CQs
    }
}
