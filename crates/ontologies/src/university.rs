//! U — a UNIVERSITY (LUBM-like) DL-Lite_R ontology.
//!
//! A DL-Lite_R rendition of the Lehigh University Benchmark TBox: the
//! person/faculty/student taxonomy, organizational concepts, and the
//! standard roles with domain/range axioms. Four qualified existential
//! axioms (e.g. `Professor ⊑ ∃teacherOf.Course`) require the Lemma 1/2
//! normalization, which is what makes the UX variant (auxiliary predicates
//! in-schema) differ from U.
//!
//! Domain/range design matches the Table 1 NY⋆ results by construction:
//! q2 reduces to `teacherOf(A,B)` alone (size 1), q4 to `worksFor` and its
//! sub-role `headOf` (size 2), q5 to `worksFor/headOf` × the five
//! `hasAlumnus` alternatives (size 10), while q3 keeps `Student(A)` (no
//! domain axiom covers it) giving 4 CQs with 5 joins each.

/// DL-Lite_R axioms of the U ontology.
pub(crate) const UNIVERSITY_DL: &str = "
% ---- person taxonomy ----
Employee [= Person
FacultyStaff [= Employee
Professor [= FacultyStaff
Lecturer [= FacultyStaff
PostDoc [= FacultyStaff
FullProfessor [= Professor
AssociateProfessor [= Professor
AssistantProfessor [= Professor
Chair [= Professor
Dean [= Professor
VisitingProfessor [= Professor
Student [= Person
GraduateStudent [= Student
UndergraduateStudent [= Student
PhDStudent [= GraduateStudent
TeachingAssistant [= Person
ResearchAssistant [= Person
Director [= Person

% ---- organizations ----
University [= Organization
Department [= Organization
Institute [= Organization
ResearchGroup [= Organization
College [= Organization
Program [= Organization

% ---- courses ----
GraduateCourse [= Course
Seminar [= Course

% ---- roles ----
headOf [= worksFor
worksFor [= memberOf
exists worksFor [= Person
exists worksFor- [= Organization
exists memberOf- [= Organization
exists teacherOf [= FacultyStaff
exists teacherOf- [= Course
exists advisor [= Person
exists advisor- [= Professor
exists takesCourse- [= Course
exists hasAlumnus [= University
exists hasAlumnus- [= Person
exists affiliatedOrganizationOf [= Organization
exists affiliatedOrganizationOf- [= Organization
degreeFrom [= hasAlumnus-
undergraduateDegreeFrom [= degreeFrom
mastersDegreeFrom [= degreeFrom
doctoralDegreeFrom [= degreeFrom

% ---- qualified existentials (normalization-relevant; UX differs here) ----
Professor [= exists teacherOf.Course
GraduateStudent [= exists takesCourse.GraduateCourse
Chair [= exists headOf.Department
University [= exists hasAlumnus.Person

% ---- plain existentials ----
FacultyStaff [= exists worksFor
Student [= exists takesCourse
GraduateStudent [= exists advisor

% ---- disjointness ----
Student [= not FacultyStaff
";

/// The five U queries of Table 2 (verbatim).
pub const UNIVERSITY_QUERIES: [(&str, &str); 5] = [
    (
        "q1",
        "q(A) :- worksFor(A, B), affiliatedOrganizationOf(B, C).",
    ),
    ("q2", "q(A, B) :- Person(A), teacherOf(A, B), Course(B)."),
    (
        "q3",
        "q(A, B, C) :- Student(A), advisor(A, B), FacultyStaff(B), takesCourse(A, C), \
         teacherOf(B, C), Course(C).",
    ),
    (
        "q4",
        "q(A, B) :- Person(A), worksFor(A, B), Organization(B).",
    ),
    (
        "q5",
        "q(A) :- Person(A), worksFor(A, B), University(B), hasAlumnus(B, A).",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use nyaya_parser::{parse_dl_lite, parse_query};

    #[test]
    fn university_parses_and_is_linear() {
        let o = parse_dl_lite(UNIVERSITY_DL).unwrap();
        assert!(nyaya_core::classes::is_linear(&o.tgds));
        // Qualified existentials are multi-head → not normal before Lemma 1.
        assert!(o.tgds.iter().any(|t| !t.is_normal()));
        let n = nyaya_core::normalize(&o.tgds);
        assert!(!n.aux_predicates.is_empty(), "UX must differ from U");
        assert!(nyaya_core::classes::is_linear(&n.tgds));
    }

    #[test]
    fn queries_parse() {
        for (name, src) in UNIVERSITY_QUERIES {
            parse_query(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let q3 = parse_query(UNIVERSITY_QUERIES[2].1).unwrap();
        assert_eq!(q3.width(), 9); // Table 1: 2016 / 224
    }
}
