"""Golden proofs and traces of the realization and cut-elimination pipeline.
For five fixed criterion-5 inputs the verbose `.prf` text (every sequent
written, see conftest.reference_format_proof) of the realized and of the
cut-free proof, the subsumption trace and the atomic-cut realization of the
same class are pinned by sha256, so a change to how sequents or occurrences
are represented cannot change a proof, a step or its measure unnoticed.
The compact text that format_proof writes for the same three proofs is
pinned too, and reads to the proof that the verbose text reads to."""

import hashlib

import pytest

from craig.construct import realize_interpolant, realize_pruned
from craig.formulas import clause_set_formula, format_clause_set, parse_clause_set, parse_formula
from craig.sequent import LKAT, format_proof, parse_proof
from craig.transform import eliminate_cuts
from conftest import reference_format_proof

# (a, b, pruned interpolant as .cls text): draws 8, 22, 28, 36 and 39 of
# random.Random(105) in test_acceptance._pruned_instances, then the hashes
# of format_proof(realize_pruned), format_proof(eliminate_cuts(...).proof),
# the trace and format_proof(realize_interpolant) of the clause set
GOLDEN = [
    ("p & u", "q | v | p & v | (q & q | (v | p))", "p\n",
     "316be1af30fc098e73cf88a0451b87b2706c7b88983abe13cacf4f7db9d23377",
     "761f87098affe1b1c673d5eb89d245aacaa53c2aab43fec191725f3949c95012",
     "a36e4bbd127dec23448f0131dbb3ab648b62740af4fd379620a149e19658be99",
     "7d4065c291f1d288b22bf741c41c07f245673bc0b7d51b821cb9de38dc8c76dd"),
    ("r & r", "(v | p) & (false | r) | ~p", "r\n",
     "98b2cf97155b73a0ff4c9714c1f4e1f4d133f12ca6ddb27577983990ce17018d",
     "16168eb11388698f644b48d58cd9e90c87499ab96ea670d69aaed52f28ce4dda",
     "dc60efcccf47f85d04da506cb4ba4547e7f72c62f0d990d47378f3948760069a",
     "7abfa55a0798467907f288503a6f96974314326d80463001b5d2f91540ec1973"),
    ("false | p | ~~p", "~~p & (true & (p & p))", "p\n",
     "f4c31651f9dc58e89ff09e07b939c31580db1a51d01889c90d743212279de05b",
     "57f52ef5075d23a9ee8706bd8f7b3cf400db7b008bf0afe3ad92c71fab782df0",
     "c7b28033b342777a4de5052fd455180449c457954adbb962ee399d481d611821",
     "bd643eca35143d347dc14da5a18285c32b01059cf9be3d56081872bd344816aa"),
    ("(q | q) & (q | false) & ~~q", "v | q | q & q & false", "q\n",
     "5ebbf5c66f7a2311538fab64451e6d77e51cacc9208d472ba3d9b38f3e47f880",
     "79a2add8b146f4bb544814a28bbf640cdd64d2bf3ae6b739a9297cf37906f6d5",
     "e997647190923effa9065ebc593c35b093829bebd1110836e6bd201169d5a95d",
     "76ba9fbc8bc10abdeae0f2dd73071d7e6c20eda4dce4853e3f148a7f508c0fd0"),
    ("~(q & p | r)", "~(false & q | p & false)", "~p ~q\n",
     "5ec2b4f463307da4efab14d8137af105eaf730e5f82c6a162305751f411b5a1b",
     "384dafde69748b9eaf347a8e0105b8862d7eaa653baa834dbe828d969ceb3478",
     "7e71a80c4aceee5b480fe9e99e5b282ecf4192080ea61d6bccb27fa1c6c066a6",
     "34ee72754f473f05de1222a27de66d29501007cef5bf27a980f405b72cde7dd3"),
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def trace_text(trace):
    return repr([
        (step.kind, step.path, step.degree, step.weight, step.new_cuts,
         format_clause_set(step.interpolant_cnf))
        for step in trace
    ])


@pytest.mark.parametrize("a, b, cls, realized, final, trace, atomic", GOLDEN)
def test_pipeline_outputs(a, b, cls, realized, final, trace, atomic):
    a, b, cs = parse_formula(a), parse_formula(b), parse_clause_set(cls)
    proof = realize_pruned(a, b, cs)
    result = eliminate_cuts(proof)
    assert sha256(reference_format_proof(proof)) == realized
    assert sha256(reference_format_proof(result.proof)) == final
    assert sha256(trace_text(result.trace)) == trace
    assert sha256(reference_format_proof(realize_interpolant(a, b, clause_set_formula(cs), LKAT))) == atomic


# the sha256 of format_proof's text of the realized, the cut-free and the
# atomic-cut proof, for each GOLDEN draw in turn
COMPACT = [
    ("fd98bff66e8423f3eb6c3ab144653069ba9023b07328dc5b59b7be5b6d413105",
     "b47ecbba036af6bd969b810ad62f7ced21762268a8e20585581874398b9073c6",
     "801b8848dd7ac6063870127d204ab8da235fad9fb2359b292aab8793a34949e9"),
    ("9e3b6d349e0203198fe8a010b64d100f8d5f7b6e5face13fabee968ca24e6912",
     "b85b7555607555c90d863bc1e71a3d60dcda7c2417dd6b6126642cd8b4c24a5a",
     "a350247c5508dbaa06ecd2a3ffd8d6ff53d2176e75d80a5ef326379dd409560d"),
    ("7cbd803cacde093c143d86566fb730efd7e38d47bede0d1fafa1def73096a19f",
     "c9f13dfb0658ce589768a4b565501ba3b7052bcce423a1e7d0f7029723a9b3f6",
     "cc222602de675c7a743b2b2807c183b7f27015990ba550ee92c5f48398988421"),
    ("cdcd19e2b0041262c66513eaf74f9b6da8282e5f6b0ff7f3b6337f0052147bb3",
     "6100ba9e8cfe6523652a999fc2957785d0505f0d8c5c0bb4c486c6f48eda30b3",
     "9b0b0edc7e3810f0a8e1ab7fd0169f41f2229ac58af84679c8ba4d61bb48f01b"),
    ("e00c941b071119626f5b117414ff9114f51b53482c2e7a8dd65a267af787d69b",
     "73076ba7fb8131080a546f0ee8dcd04ffc74ef721712e068480de45f3be814f9",
     "c785e084294b1cfdf7c8d50838d2fdcbaffa42bce58038a19d01eb9ce5654bbc"),
]


@pytest.mark.parametrize("golden, compact", zip(GOLDEN, COMPACT), ids=["draw8", "draw22", "draw28", "draw36", "draw39"])
def test_compact_prf_text(golden, compact):
    a, b, cs = parse_formula(golden[0]), parse_formula(golden[1]), parse_clause_set(golden[2])
    realized = realize_pruned(a, b, cs)
    proofs = (realized, eliminate_cuts(realized).proof, realize_interpolant(a, b, clause_set_formula(cs), LKAT))
    for proof, pin in zip(proofs, compact):
        text = format_proof(proof)
        assert sha256(text) == pin
        assert parse_proof(text) == parse_proof(reference_format_proof(proof))
        assert format_proof(parse_proof(text)) == text


def test_compact_prf_text_in_full():
    a, b, cs = parse_formula(GOLDEN[1][0]), parse_formula(GOLDEN[1][1]), parse_clause_set(GOLDEN[1][2])
    assert format_proof(realize_pruned(a, b, cs)) == (
        '(cut "r & r ;  =>  ; (v | p) & (false | r) | ~p" d2 "r" (rw 1 (lc 0 (land1 0 (land2 1 (lw 0 (ax -))))))'
        " (lw 0 (rc 1 (ror1 1 (ror2 2 (rand 1 (rc 1 (ror1 1 (ror2 2 (rneg 3 (rw 3 (lw 1 (ax -)))))))"
        " (rc 1 (ror1 1 (ror2 2 (rw 3 (rw 1 (ax -))))))))))))"
    )
