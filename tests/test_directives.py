import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given

from govtree import directives
from govtree.directives import (
    ANSWER_TYPES,
    DIRECTIVE_TYPES,
    Capability,
    LLMCall,
    MCPCall,
    Observability,
    RecordStep,
    SAMPLER_TABLE_SIZE,
    ResponseSampler,
    capability_for_directive,
    derive_rng,
    directive_tag,
    encode_directive,
    mock_answer,
    mock_handler,
)
from govtree.capability import cap_singleton, within_caps_check
from govtree.gen import gen_directive
from govtree.itree import Ret


def sample_directives(rng=None):
    rng = rng or random.Random(0)
    return [gen_directive(rng, t.__name__) for t in DIRECTIVE_TYPES]


def test_exactly_fourteen_variants():
    assert len(DIRECTIVE_TYPES) == 14


def test_tags_are_distinct():
    tags = [directive_tag(d) for d in sample_directives()]
    assert len(set(tags)) == 14


def test_tag_examples():
    assert directive_tag(Observability("x")) == "Observability"
    assert directive_tag(LLMCall("m", "p")) == "LLMCall"


def test_is_observability_selects_exactly_one_variant():
    hits = [d for d in sample_directives() if type(d) is Observability]
    assert len(hits) == 1 and directive_tag(hits[0]) == "Observability"


def test_capability_mapping():
    by_tag = {directive_tag(d): capability_for_directive(d) for d in sample_directives()}
    assert by_tag["LLMCall"] == Capability.LLM_REASON
    assert by_tag["MemoryOp"] == Capability.MEMORY
    assert by_tag["CallMachine"] == Capability.MACHINE_CALL
    assert by_tag["MCPCall"] == Capability.MACHINE_CALL
    assert by_tag["HTTPRequest"] == Capability.HTTP
    assert by_tag["GraphQLRequest"] == Capability.HTTP
    assert by_tag["FileOp"] == Capability.FILE
    assert by_tag["DBOp"] == Capability.DB
    assert by_tag["ExecOp"] == Capability.EXEC
    assert by_tag["Broadcast"] == Capability.BROADCAST
    assert by_tag["EmitEvent"] == Capability.BROADCAST
    assert by_tag["WebSocketOp"] == Capability.WEBSOCKET


def test_no_capability_exactly_for_bookkeeping():
    free = {directive_tag(d) for d in sample_directives() if capability_for_directive(d) is None}
    assert free == {"RecordStep", "Observability"}


def test_mcpcall_capability_by_brute_force():
    # the one singleton set containing an MCPCall tree is machine_call
    from govtree.itree import ret, vis

    tree = lambda: vis(MCPCall("srv", "m"), lambda x: ret(None))
    sampler = ResponseSampler(seed=0)
    holding = [
        c
        for c in Capability
        if within_caps_check(cap_singleton(c), tree(), 50, sampler).is_holds
    ]
    assert holding == [Capability.MACHINE_CALL]


def test_encoding_distinct_across_variants():
    encodings = [encode_directive(d) for d in sample_directives()]
    assert len(set(encodings)) == 14


def test_encoding_escapes_delimiters():
    d = LLMCall(model="a,b", prompt="x=y{z}\\\n")
    enc = encode_directive(d)
    assert enc == "LLMCall{model=a\\,b,prompt=x\\=y\\{z\\}\\\\\\n}"


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_encoding_injective_on_random_pairs(s1, s2):
    d1 = gen_directive(random.Random(s1))
    d2 = gen_directive(random.Random(s2))
    if d1 != d2:
        assert encode_directive(d1) != encode_directive(d2)
    else:
        assert encode_directive(d1) == encode_directive(d2)


def test_mock_handler_unit_answers():
    h = mock_handler(1)
    node = h(Observability("x")).step()
    assert node == Ret(None)
    assert h(RecordStep("s")).step() == Ret(None)


def test_mock_handler_deterministic_and_typed():
    h1, h2 = mock_handler(1), mock_handler(1)
    for d in sample_directives():
        a1 = h1(d).step().value
        a2 = h2(d).step().value
        assert a1 == a2
        expected = ANSWER_TYPES[type(d)]
        if expected is None:
            assert a1 is None
        else:
            assert type(a1) is expected
            assert isinstance(a1.status, int) and isinstance(a1.content, str)


def test_mock_answer_varies_with_seed():
    d = LLMCall("m", "p")
    answers = {mock_answer(seed, d) for seed in range(20)}
    assert len(answers) > 1


def test_sampler_deterministic():
    s1 = ResponseSampler(seed=9, samples_per_event=3)
    s2 = ResponseSampler(seed=9, samples_per_event=3)
    for d in sample_directives():
        assert s1.answers(d) == s2.answers(d)


def test_sampler_unit_answer_is_single_none():
    s = ResponseSampler(seed=0)
    assert s.answers(Observability("x")) == (None,)
    assert len(s.answers(LLMCall("m", "p"))) == 2


# Every string field holds each escaped character and some non-ASCII text.
NASTY = "a\\b{c}d,e=f\ng é→𝄞"


def nasty_directives():
    return [
        t(*[f"{f}{i}:{NASTY}" for f in t._fields]) for i, t in enumerate(DIRECTIVE_TYPES)
    ]


# Per variant: encode_directive(d), mock_answer(11, d) and
# ResponseSampler(seed=3).answers(d), with each answer record written as
# (status, content). The encodings were recorded from the implementation
# that encoded every directive; the answers from the one that reads each
# answer off the SHA-256 digest of its seed and encoding, seeding no
# generator.
PINNED = {
    'LLMCall': (
        'LLMCall{model=model0:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,prompt=prompt0:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (367, 'llmresponse-324839'),
        ((494, 'llmresponse-811226'), (433, 'llmresponse-505516')),
    ),
    'HTTPRequest': (
        'HTTPRequest{method=method1:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,url=url1:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,body=body1:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (582, 'httpresponse-899806'),
        ((564, 'httpresponse-982632'), (343, 'httpresponse-778478')),
    ),
    'FileOp': (
        'FileOp{op=op2:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,path=path2:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (130, 'fileresult-740804'),
        ((272, 'fileresult-711722'), (419, 'fileresult-917694')),
    ),
    'CallMachine': (
        'CallMachine{machine=machine3:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,payload=payload3:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (226, 'callmachineresult-481664'),
        ((293, 'callmachineresult-45709'), (324, 'callmachineresult-331387')),
    ),
    'MemoryOp': (
        'MemoryOp{op=op4:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,key=key4:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,value=value4:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (402, 'memoryresult-515678'),
        ((598, 'memoryresult-595138'), (337, 'memoryresult-628019')),
    ),
    'DBOp': (
        'DBOp{query=query5:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (152, 'dbresult-222077'),
        ((135, 'dbresult-545795'), (448, 'dbresult-454579')),
    ),
    'ExecOp': (
        'ExecOp{command=command6:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (571, 'execresult-861559'),
        ((365, 'execresult-631971'), (471, 'execresult-500086')),
    ),
    'RecordStep': (
        'RecordStep{step=step7:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        None,
        (None,),
    ),
    'Broadcast': (
        'Broadcast{channel=channel8:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,message=message8:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        None,
        (None,),
    ),
    'EmitEvent': (
        'EmitEvent{name=name9:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,payload=payload9:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        None,
        (None,),
    ),
    'GraphQLRequest': (
        'GraphQLRequest{endpoint=endpoint10:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,query=query10:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (146, 'httpresponse-591767'),
        ((363, 'httpresponse-462653'), (484, 'httpresponse-222877')),
    ),
    'WebSocketOp': (
        'WebSocketOp{op=op11:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,url=url11:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,message=message11:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (226, 'websocketresult-854850'),
        ((493, 'websocketresult-867196'), (457, 'websocketresult-874892')),
    ),
    'MCPCall': (
        'MCPCall{server=server12:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,method=method12:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (348, 'callmachineresult-203754'),
        ((244, 'callmachineresult-714079'), (462, 'callmachineresult-919753')),
    ),
    'Observability': (
        'Observability{message=message13:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        None,
        (None,),
    ),
}


def as_pair(answer):
    return None if answer is None else (answer.status, answer.content)


def test_answer_stream_is_pinned():
    sampler = ResponseSampler(seed=3)
    for d in nasty_directives():
        encoding, mock, samples = PINNED[directive_tag(d)]
        assert encode_directive(d) == encoding
        answer = mock_answer(11, d)
        assert as_pair(answer) == mock
        assert tuple(as_pair(a) for a in sampler.answers(d)) == samples
        if mock is not None:
            assert type(answer) is ANSWER_TYPES[type(d)]


# Per variant: the repr of the directive in ``nasty_directives()``, of its
# ``mock_answer(11, d)`` and of its ``ResponseSampler(seed=3)`` answers, as
# witness texts such as ``events differ: ...`` and ``... answered ...`` print
# them. Recorded from the implementation whose directives and answers were
# frozen dataclasses.
PINNED_REPRS = {
    'LLMCall': (
        "LLMCall(model='model0:a\\\\b{c}d,e=f\\ng é→𝄞', prompt='prompt0:a\\\\b{c}d,e=f\\ng é→𝄞')",
        "Answer(status=367, content='llmresponse-324839')",
        ("Answer(status=494, content='llmresponse-811226')", "Answer(status=433, content='llmresponse-505516')"),
    ),
    'HTTPRequest': (
        "HTTPRequest(method='method1:a\\\\b{c}d,e=f\\ng é→𝄞', url='url1:a\\\\b{c}d,e=f\\ng é→𝄞', body='body1:a\\\\b{c}d,e=f\\ng é→𝄞')",
        "Answer(status=582, content='httpresponse-899806')",
        ("Answer(status=564, content='httpresponse-982632')", "Answer(status=343, content='httpresponse-778478')"),
    ),
    'FileOp': (
        "FileOp(op='op2:a\\\\b{c}d,e=f\\ng é→𝄞', path='path2:a\\\\b{c}d,e=f\\ng é→𝄞')",
        "Answer(status=130, content='fileresult-740804')",
        ("Answer(status=272, content='fileresult-711722')", "Answer(status=419, content='fileresult-917694')"),
    ),
    'CallMachine': (
        "CallMachine(machine='machine3:a\\\\b{c}d,e=f\\ng é→𝄞', payload='payload3:a\\\\b{c}d,e=f\\ng é→𝄞')",
        "Answer(status=226, content='callmachineresult-481664')",
        ("Answer(status=293, content='callmachineresult-45709')", "Answer(status=324, content='callmachineresult-331387')"),
    ),
    'MemoryOp': (
        "MemoryOp(op='op4:a\\\\b{c}d,e=f\\ng é→𝄞', key='key4:a\\\\b{c}d,e=f\\ng é→𝄞', value='value4:a\\\\b{c}d,e=f\\ng é→𝄞')",
        "Answer(status=402, content='memoryresult-515678')",
        ("Answer(status=598, content='memoryresult-595138')", "Answer(status=337, content='memoryresult-628019')"),
    ),
    'DBOp': (
        "DBOp(query='query5:a\\\\b{c}d,e=f\\ng é→𝄞')",
        "Answer(status=152, content='dbresult-222077')",
        ("Answer(status=135, content='dbresult-545795')", "Answer(status=448, content='dbresult-454579')"),
    ),
    'ExecOp': (
        "ExecOp(command='command6:a\\\\b{c}d,e=f\\ng é→𝄞')",
        "Answer(status=571, content='execresult-861559')",
        ("Answer(status=365, content='execresult-631971')", "Answer(status=471, content='execresult-500086')"),
    ),
    'RecordStep': (
        "RecordStep(step='step7:a\\\\b{c}d,e=f\\ng é→𝄞')",
        'None',
        ('None',),
    ),
    'Broadcast': (
        "Broadcast(channel='channel8:a\\\\b{c}d,e=f\\ng é→𝄞', message='message8:a\\\\b{c}d,e=f\\ng é→𝄞')",
        'None',
        ('None',),
    ),
    'EmitEvent': (
        "EmitEvent(name='name9:a\\\\b{c}d,e=f\\ng é→𝄞', payload='payload9:a\\\\b{c}d,e=f\\ng é→𝄞')",
        'None',
        ('None',),
    ),
    'GraphQLRequest': (
        "GraphQLRequest(endpoint='endpoint10:a\\\\b{c}d,e=f\\ng é→𝄞', query='query10:a\\\\b{c}d,e=f\\ng é→𝄞')",
        "Answer(status=146, content='httpresponse-591767')",
        ("Answer(status=363, content='httpresponse-462653')", "Answer(status=484, content='httpresponse-222877')"),
    ),
    'WebSocketOp': (
        "WebSocketOp(op='op11:a\\\\b{c}d,e=f\\ng é→𝄞', url='url11:a\\\\b{c}d,e=f\\ng é→𝄞', message='message11:a\\\\b{c}d,e=f\\ng é→𝄞')",
        "Answer(status=226, content='websocketresult-854850')",
        ("Answer(status=493, content='websocketresult-867196')", "Answer(status=457, content='websocketresult-874892')"),
    ),
    'MCPCall': (
        "MCPCall(server='server12:a\\\\b{c}d,e=f\\ng é→𝄞', method='method12:a\\\\b{c}d,e=f\\ng é→𝄞')",
        "Answer(status=348, content='callmachineresult-203754')",
        ("Answer(status=244, content='callmachineresult-714079')", "Answer(status=462, content='callmachineresult-919753')"),
    ),
    'Observability': (
        "Observability(message='message13:a\\\\b{c}d,e=f\\ng é→𝄞')",
        'None',
        ('None',),
    ),
}


def test_directive_and_answer_reprs_are_pinned():
    sampler = ResponseSampler(seed=3)
    for d in nasty_directives():
        directive, mock, samples = PINNED_REPRS[directive_tag(d)]
        assert repr(d) == directive
        assert repr(mock_answer(11, d)) == mock
        assert tuple(map(repr, sampler.answers(d))) == samples


def test_directive_and_answer_hash_their_field_tuples():
    # Set and dict orders over directives and answers follow these hashes.
    sampler = ResponseSampler(seed=3)
    for d in nasty_directives() + sample_directives():
        assert hash(d) == hash(tuple(getattr(d, name) for name in d._fields))
        for a in (mock_answer(11, d), *sampler.answers(d)):
            if a is not None:
                assert hash(a) == hash((a.status, a.content))


def reference_encoding(d) -> str:
    """The documented encoding, one character at a time."""
    escapes = {"\\": "\\\\", "{": "\\{", "}": "\\}", ",": "\\,", "=": "\\=", "\n": "\\n"}
    parts = []
    for f in d._fields:
        value = getattr(d, f)
        parts.append(f + "=" + "".join(escapes.get(c, c) for c in value))
    return type(d).__name__ + "{" + ",".join(parts) + "}"


# Any text, or short text over the escaped characters, where collisions
# between distinct directives would show.
FIELD_TEXT = st.text() | st.text(alphabet="\\{},=\nn", max_size=4)


@st.composite
def unicode_directives(draw):
    t = draw(st.sampled_from(DIRECTIVE_TYPES))
    return t(*[draw(FIELD_TEXT) for _ in t._fields])


@given(unicode_directives())
def test_encoding_is_the_documented_escape(d):
    assert encode_directive(d) == reference_encoding(d)


@given(unicode_directives(), unicode_directives())
def test_encoding_injective_over_unicode(d1, d2):
    assert (encode_directive(d1) == encode_directive(d2)) == (d1 == d2)


# A sampler shared by every example below, so that most of its answers
# come from its table.
WARM = ResponseSampler(seed=3)


@given(unicode_directives())
def test_warm_sampler_answers_as_a_fresh_one(d):
    assert WARM.answers(d) == ResponseSampler(seed=3).answers(d)
    assert WARM.answers(d) == ResponseSampler(seed=3).answers(d)


def test_warm_sampler_keeps_the_pinned_stream():
    sampler = ResponseSampler(seed=3)
    for _ in range(2):
        for d in nasty_directives():
            samples = PINNED[directive_tag(d)][2]
            assert tuple(as_pair(a) for a in sampler.answers(d)) == samples


def test_sampler_table_is_keyed_on_the_encoding():
    # equal directives with different encodings keep their own answers
    one, true = LLMCall(1, "p"), LLMCall(True, "p")
    assert one == true and encode_directive(one) != encode_directive(true)
    sampler = ResponseSampler(seed=3)
    assert sampler.answers(one) == ResponseSampler(seed=3).answers(one)
    assert sampler.answers(true) == ResponseSampler(seed=3).answers(true)
    assert sampler.answers(one) != sampler.answers(true)


def test_sampler_table_is_not_part_of_its_identity():
    fresh, warm = ResponseSampler(seed=3), ResponseSampler(seed=3)
    for d in sample_directives():
        warm.answers(d)
    assert warm._table
    assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    assert repr(warm) == "ResponseSampler(seed=3, samples_per_event=2)"
    assert warm != ResponseSampler(seed=4)


def test_sampler_table_stays_bounded():
    sampler = ResponseSampler(seed=5)
    directives = [LLMCall("m", f"p{i}") for i in range(SAMPLER_TABLE_SIZE + 100)]
    for d in directives:
        sampler.answers(d)
        assert len(sampler._table) <= SAMPLER_TABLE_SIZE
    for d in directives[::97]:
        assert sampler.answers(d) == ResponseSampler(seed=5).answers(d)


def record_directives(n, seed=0):
    """``n`` generated directives with record answers."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        d = gen_directive(rng)
        if ANSWER_TYPES[type(d)] is not None:
            out.append(d)
    return out


def test_digest_answers_are_deterministic():
    fresh = ResponseSampler(seed=4)
    for d in record_directives(500):
        copy = type(d)(*[getattr(d, f) for f in d._fields])
        assert mock_answer(4, d) == mock_answer(4, copy)
        assert fresh.answers(d) == ResponseSampler(seed=4).answers(copy)


# The content prefix of each record-answered variant, written out here so
# that a change to the signature's answer names shows.
ANSWER_PREFIXES = {
    "LLMCall": "llmresponse",
    "HTTPRequest": "httpresponse",
    "FileOp": "fileresult",
    "CallMachine": "callmachineresult",
    "MemoryOp": "memoryresult",
    "DBOp": "dbresult",
    "ExecOp": "execresult",
    "GraphQLRequest": "httpresponse",
    "WebSocketOp": "websocketresult",
    "MCPCall": "callmachineresult",
}


def test_digest_answers_have_the_documented_form():
    sampler = ResponseSampler(seed=2, samples_per_event=3)
    for d in record_directives(2_000):
        answer_type = ANSWER_TYPES[type(d)]
        prefix = ANSWER_PREFIXES[directive_tag(d)]
        for answer in (mock_answer(2, d), *sampler.answers(d)):
            assert type(answer) is answer_type
            assert type(answer.status) is int and 100 <= answer.status < 600
            m = re.fullmatch(rf"{prefix}-(0|[1-9][0-9]*)", answer.content)
            assert m and int(m.group(1)) < 1_000_000


def test_seed_and_sample_index_each_move_the_answer():
    ds = record_directives(2_000)
    s0, s1 = ResponseSampler(seed=0), ResponseSampler(seed=1)
    by_mock_seed = sum(mock_answer(0, d) != mock_answer(1, d) for d in ds)
    by_sample_seed = sum(s0.answers(d)[0] != s1.answers(d)[0] for d in ds)
    by_index = sum(s0.answers(d)[0] != s0.answers(d)[1] for d in ds)
    assert min(by_mock_seed, by_sample_seed, by_index) >= 0.99 * len(ds)


def test_statuses_spread_over_every_hundred():
    counts = {}
    ds = record_directives(20_000, seed=1)
    for d in ds:
        hundred = mock_answer(7, d).status // 100
        counts[hundred] = counts.get(hundred, 0) + 1
    assert sorted(counts) == [1, 2, 3, 4, 5]
    assert all(0.15 * len(ds) <= c <= 0.25 * len(ds) for c in counts.values()), counts


def test_unit_answers_encode_nothing(monkeypatch):
    def refuse(d):
        raise AssertionError(f"encoded {d!r}")

    monkeypatch.setattr(directives, "encode_directive", refuse)
    sampler = ResponseSampler(seed=1)
    for d in sample_directives():
        if ANSWER_TYPES[type(d)] is None:
            assert mock_answer(1, d) is None
            assert sampler.answers(d) == (None,)


def test_answers_construct_no_generator(monkeypatch):
    def refuse(*args):
        raise AssertionError("random.Random constructed")

    monkeypatch.setattr(directives.random, "Random", refuse)
    for d in nasty_directives():
        encoding, mock, samples = PINNED[directive_tag(d)]
        assert as_pair(mock_answer(11, d)) == mock
        assert tuple(as_pair(a) for a in ResponseSampler(seed=3).answers(d)) == samples
    with pytest.raises(AssertionError):  # the patch took
        derive_rng("x")


def test_derive_rng_stream_is_pinned():
    # Campaign draws, gen_* output and benchmark inputs all start here.
    rng = derive_rng("diff", 123, 0)
    assert [rng.randrange(2**32) for _ in range(3)] == [665837062, 3375245153, 2298321486]
    assert rng.random() == 0.03222430915273966
    assert derive_rng("sample", 3, 1, "LLMCall{model=m,prompt=p}").getrandbits(64) == 15562580910033776383
