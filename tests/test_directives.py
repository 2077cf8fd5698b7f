import random
from dataclasses import fields

import hypothesis.strategies as st
from hypothesis import given

from govtree.directives import (
    ANSWER_TYPES,
    DIRECTIVE_TYPES,
    Capability,
    HTTPRequest,
    LLMCall,
    MCPCall,
    Observability,
    RecordStep,
    SAMPLER_TABLE_SIZE,
    ResponseSampler,
    capability_for_directive,
    directive_tag,
    encode_directive,
    is_observability,
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
    hits = [d for d in sample_directives() if is_observability(d)]
    assert len(hits) == 1 and type(hits[0]) is Observability
    assert is_observability(Observability("log"))
    assert not is_observability(HTTPRequest("GET", "u", "b"))


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
        t(*[f"{f.name}{i}:{NASTY}" for f in fields(t)]) for i, t in enumerate(DIRECTIVE_TYPES)
    ]


# Recorded from the implementation that encoded every directive and seeded
# a generator for every answer: per variant, encode_directive(d),
# mock_answer(11, d) and ResponseSampler(seed=3).answers(d), with each
# answer record written as (status, content).
PINNED = {
    'LLMCall': (
        'LLMCall{model=model0:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,prompt=prompt0:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (405, 'llmresponse-58605'),
        ((214, 'llmresponse-483583'), (509, 'llmresponse-914336')),
    ),
    'HTTPRequest': (
        'HTTPRequest{method=method1:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,url=url1:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,body=body1:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (471, 'httpresponse-576290'),
        ((449, 'httpresponse-520776'), (260, 'httpresponse-410000')),
    ),
    'FileOp': (
        'FileOp{op=op2:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,path=path2:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (151, 'fileresult-29954'),
        ((279, 'fileresult-56508'), (308, 'fileresult-91975')),
    ),
    'CallMachine': (
        'CallMachine{machine=machine3:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,payload=payload3:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (318, 'callmachineresult-879154'),
        ((299, 'callmachineresult-839187'), (510, 'callmachineresult-48782')),
    ),
    'MemoryOp': (
        'MemoryOp{op=op4:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,key=key4:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,value=value4:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (280, 'memoryresult-59548'),
        ((479, 'memoryresult-386206'), (598, 'memoryresult-34871')),
    ),
    'DBOp': (
        'DBOp{query=query5:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (241, 'dbresult-735788'),
        ((386, 'dbresult-840224'), (158, 'dbresult-777388')),
    ),
    'ExecOp': (
        'ExecOp{command=command6:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (587, 'execresult-283430'),
        ((247, 'execresult-453447'), (117, 'execresult-393746')),
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
        (305, 'httpresponse-708240'),
        ((300, 'httpresponse-948902'), (111, 'httpresponse-767028')),
    ),
    'WebSocketOp': (
        'WebSocketOp{op=op11:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,url=url11:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,message=message11:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (214, 'websocketresult-409725'),
        ((181, 'websocketresult-895031'), (572, 'websocketresult-380150')),
    ),
    'MCPCall': (
        'MCPCall{server=server12:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞,method=method12:a\\\\b\\{c\\}d\\,e\\=f\\ng é→𝄞}',
        (103, 'callmachineresult-487924'),
        ((101, 'callmachineresult-777639'), (396, 'callmachineresult-866524')),
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


def reference_encoding(d) -> str:
    """The documented encoding, one character at a time."""
    escapes = {"\\": "\\\\", "{": "\\{", "}": "\\}", ",": "\\,", "=": "\\=", "\n": "\\n"}
    parts = []
    for f in fields(d):
        value = getattr(d, f.name)
        parts.append(f.name + "=" + "".join(escapes.get(c, c) for c in value))
    return type(d).__name__ + "{" + ",".join(parts) + "}"


# Any text, or short text over the escaped characters, where collisions
# between distinct directives would show.
FIELD_TEXT = st.text() | st.text(alphabet="\\{},=\nn", max_size=4)


@st.composite
def unicode_directives(draw):
    t = draw(st.sampled_from(DIRECTIVE_TYPES))
    return t(*[draw(FIELD_TEXT) for _ in fields(t)])


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
