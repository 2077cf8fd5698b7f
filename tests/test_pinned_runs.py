"""`govtree run` pinned byte for byte: exit code, stdout, stderr, trace
text and ledger text of each shipped program under three policies, at
the default fuel and at fuels that stop a run right after a passing
check; and governed runs whose replies carry two Taus, at fuels that run
out inside them. The literals were recorded from the image-driving
interpreter, so a change in how governed runs are driven shows up here.
"""

from pathlib import Path

import pytest

from govtree.cli import main
from govtree.directives import mock_handler
from govtree.governance import PERMISSIVE, govern, interpret_governed
from govtree.itree import tau
from govtree.ledger import format_ledger, trace_to_ledger
from govtree.program import parse_program
from govtree.trace import format_trace

PROGRAMS = Path(__file__).resolve().parents[1] / "programs"

# (program, policy, --fuel or None for the default):
#   (exit code, stdout, stderr, trace file, ledger file)
PINNED_RUNS = {
    ("counter_machine", "denying", 1): (
        2,
        "",
        "denied\n",
        "GOV Observability fail\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 4f684e9708011d01ca7a6ffd0a47d2057e67657f38f0fc53d110c6db304518dd AQAAAA1PYnNlcnZhYmlsaXR5AA==\n",
    ),
    ("counter_machine", "denying", None): (
        2,
        "",
        "denied\n",
        "GOV Observability fail\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 4f684e9708011d01ca7a6ffd0a47d2057e67657f38f0fc53d110c6db304518dd AQAAAA1PYnNlcnZhYmlsaXR5AA==\n",
    ),
    ("counter_machine", "permissive", 1): (
        3,
        "",
        "fuel exhausted\n",
        "GOV Observability pass\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 f65021f71011c0b3b03f0dab2c67f743fb43d87f12f3b2f660b5b6bbe3152c58 AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n",
    ),
    ("counter_machine", "permissive", 11): (
        3,
        "",
        "fuel exhausted\n",
        "GOV Observability pass\n"
        "IO Observability{message=pc\\=0;regs\\=1\\,0}\n"
        "GOV Observability pass\n"
        "IO Observability{message=pc\\=1;regs\\=2\\,0}\n"
        "GOV Observability pass\n"
        "IO Observability{message=pc\\=2;regs\\=3\\,0}\n"
        "GOV Observability pass\n"
        "IO Observability{message=pc\\=3;regs\\=2\\,0}\n"
        "GOV Observability pass\n"
        "IO Observability{message=pc\\=4;regs\\=2\\,1}\n"
        "GOV Observability pass\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 f65021f71011c0b3b03f0dab2c67f743fb43d87f12f3b2f660b5b6bbe3152c58 AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n"
        "f65021f71011c0b3b03f0dab2c67f743fb43d87f12f3b2f660b5b6bbe3152c58 9235e73fe63f506bcbc5b3363f97cdebc714aba8560f4555821131dea9328e88 AgAAACdPYnNlcnZhYmlsaXR5e21lc3NhZ2U9cGNcPTA7cmVnc1w9MVwsMH0=\n"
        "9235e73fe63f506bcbc5b3363f97cdebc714aba8560f4555821131dea9328e88 329b47b1837c325ec7274c61cac0765e1c0766d3ffb18192ef6e15977d5d7a96 AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n"
        "329b47b1837c325ec7274c61cac0765e1c0766d3ffb18192ef6e15977d5d7a96 8df59407f51dc84cccb86febf2de24a6f09d25db5f58c68530b753bcf5ae9d18 AgAAACdPYnNlcnZhYmlsaXR5e21lc3NhZ2U9cGNcPTE7cmVnc1w9MlwsMH0=\n"
        "8df59407f51dc84cccb86febf2de24a6f09d25db5f58c68530b753bcf5ae9d18 333934c05d15cec21bfad874344f01be4ff1f9a399674e2ced49da343d6314bf AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n"
        "333934c05d15cec21bfad874344f01be4ff1f9a399674e2ced49da343d6314bf 636cb607379e821b1ee69f52892b946310a4cc5a3207a9a16164927cd2592163 AgAAACdPYnNlcnZhYmlsaXR5e21lc3NhZ2U9cGNcPTI7cmVnc1w9M1wsMH0=\n"
        "636cb607379e821b1ee69f52892b946310a4cc5a3207a9a16164927cd2592163 c9ea965b67977f867338876255509f525f30a3d355f6365ea21f6538bda3de36 AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n"
        "c9ea965b67977f867338876255509f525f30a3d355f6365ea21f6538bda3de36 0dc3ba4cc2022dcae50608fd58c36d11ded5808c476eadad7670eacbcfd55ff2 AgAAACdPYnNlcnZhYmlsaXR5e21lc3NhZ2U9cGNcPTM7cmVnc1w9MlwsMH0=\n"
        "0dc3ba4cc2022dcae50608fd58c36d11ded5808c476eadad7670eacbcfd55ff2 09d20e8626b7512692ee51aa8f0d933f4538db04b9be0e5012f3275040ea574e AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n"
        "09d20e8626b7512692ee51aa8f0d933f4538db04b9be0e5012f3275040ea574e b531c56c47d0ea64afa29b9f6e98cd169650309eda4912e509b2d44adaa70e20 AgAAACdPYnNlcnZhYmlsaXR5e21lc3NhZ2U9cGNcPTQ7cmVnc1w9MlwsMX0=\n"
        "b531c56c47d0ea64afa29b9f6e98cd169650309eda4912e509b2d44adaa70e20 c8e4752de7291b9b5fc0b02dea326f1b5f90c05f9d99e8d8ac7b7c0194fac824 AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n",
    ),
    ("counter_machine", "permissive", None): (
        0,
        "null\n",
        "",
        "GOV Observability pass\n"
        "IO Observability{message=pc\\=0;regs\\=1\\,0}\n"
        "GOV Observability pass\n"
        "IO Observability{message=pc\\=1;regs\\=2\\,0}\n"
        "GOV Observability pass\n"
        "IO Observability{message=pc\\=2;regs\\=3\\,0}\n"
        "GOV Observability pass\n"
        "IO Observability{message=pc\\=3;regs\\=2\\,0}\n"
        "GOV Observability pass\n"
        "IO Observability{message=pc\\=4;regs\\=2\\,1}\n"
        "GOV Observability pass\n"
        "IO Observability{message=pc\\=5;regs\\=2\\,0}\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 f65021f71011c0b3b03f0dab2c67f743fb43d87f12f3b2f660b5b6bbe3152c58 AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n"
        "f65021f71011c0b3b03f0dab2c67f743fb43d87f12f3b2f660b5b6bbe3152c58 9235e73fe63f506bcbc5b3363f97cdebc714aba8560f4555821131dea9328e88 AgAAACdPYnNlcnZhYmlsaXR5e21lc3NhZ2U9cGNcPTA7cmVnc1w9MVwsMH0=\n"
        "9235e73fe63f506bcbc5b3363f97cdebc714aba8560f4555821131dea9328e88 329b47b1837c325ec7274c61cac0765e1c0766d3ffb18192ef6e15977d5d7a96 AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n"
        "329b47b1837c325ec7274c61cac0765e1c0766d3ffb18192ef6e15977d5d7a96 8df59407f51dc84cccb86febf2de24a6f09d25db5f58c68530b753bcf5ae9d18 AgAAACdPYnNlcnZhYmlsaXR5e21lc3NhZ2U9cGNcPTE7cmVnc1w9MlwsMH0=\n"
        "8df59407f51dc84cccb86febf2de24a6f09d25db5f58c68530b753bcf5ae9d18 333934c05d15cec21bfad874344f01be4ff1f9a399674e2ced49da343d6314bf AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n"
        "333934c05d15cec21bfad874344f01be4ff1f9a399674e2ced49da343d6314bf 636cb607379e821b1ee69f52892b946310a4cc5a3207a9a16164927cd2592163 AgAAACdPYnNlcnZhYmlsaXR5e21lc3NhZ2U9cGNcPTI7cmVnc1w9M1wsMH0=\n"
        "636cb607379e821b1ee69f52892b946310a4cc5a3207a9a16164927cd2592163 c9ea965b67977f867338876255509f525f30a3d355f6365ea21f6538bda3de36 AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n"
        "c9ea965b67977f867338876255509f525f30a3d355f6365ea21f6538bda3de36 0dc3ba4cc2022dcae50608fd58c36d11ded5808c476eadad7670eacbcfd55ff2 AgAAACdPYnNlcnZhYmlsaXR5e21lc3NhZ2U9cGNcPTM7cmVnc1w9MlwsMH0=\n"
        "0dc3ba4cc2022dcae50608fd58c36d11ded5808c476eadad7670eacbcfd55ff2 09d20e8626b7512692ee51aa8f0d933f4538db04b9be0e5012f3275040ea574e AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n"
        "09d20e8626b7512692ee51aa8f0d933f4538db04b9be0e5012f3275040ea574e b531c56c47d0ea64afa29b9f6e98cd169650309eda4912e509b2d44adaa70e20 AgAAACdPYnNlcnZhYmlsaXR5e21lc3NhZ2U9cGNcPTQ7cmVnc1w9MlwsMX0=\n"
        "b531c56c47d0ea64afa29b9f6e98cd169650309eda4912e509b2d44adaa70e20 c8e4752de7291b9b5fc0b02dea326f1b5f90c05f9d99e8d8ac7b7c0194fac824 AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n"
        "c8e4752de7291b9b5fc0b02dea326f1b5f90c05f9d99e8d8ac7b7c0194fac824 f925610b439a4ba9369c9bdae4df7e7ff51d3b417649c0089467b1536e7569ec AgAAACdPYnNlcnZhYmlsaXR5e21lc3NhZ2U9cGNcPTU7cmVnc1w9MlwsMH0=\n",
    ),
    ("counter_machine", "tags:LLMCall", None): (
        2,
        "",
        "denied\n",
        "GOV Observability fail\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 4f684e9708011d01ca7a6ffd0a47d2057e67657f38f0fc53d110c6db304518dd AQAAAA1PYnNlcnZhYmlsaXR5AA==\n",
    ),
    ("llm_pipeline", "denying", None): (
        2,
        "",
        "denied\n",
        "GOV LLMCall fail\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 ccaf045160698c62937258791968e64226e2f9d5a1cc5de03be633f1236a12bd AQAAAAdMTE1DYWxsAA==\n",
    ),
    ("llm_pipeline", "permissive", 0): (
        3,
        "",
        "fuel exhausted\n",
        "",
        "GOVLEDGER v1 sha256\n",
    ),
    ("llm_pipeline", "permissive", 1): (
        3,
        "",
        "fuel exhausted\n",
        "GOV LLMCall pass\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f AQAAAAdMTE1DYWxsAQ==\n",
    ),
    ("llm_pipeline", "permissive", 3): (
        3,
        "",
        "fuel exhausted\n",
        "GOV LLMCall pass\n"
        "IO LLMCall{model=m1,prompt=summarize the incident}\n"
        "GOV MemoryOp pass\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f AQAAAAdMTE1DYWxsAQ==\n"
        "dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f 0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 AgAAAC9MTE1DYWxse21vZGVsPW0xLHByb21wdD1zdW1tYXJpemUgdGhlIGluY2lkZW50fQ==\n"
        "0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 70f639b347a374eb3ee2a12b950ca17cf5c3ff2aec9d4432fd201c0687377742 AQAAAAhNZW1vcnlPcAE=\n",
    ),
    ("llm_pipeline", "permissive", 5): (
        3,
        "",
        "fuel exhausted\n",
        "GOV LLMCall pass\n"
        "IO LLMCall{model=m1,prompt=summarize the incident}\n"
        "GOV MemoryOp pass\n"
        "IO MemoryOp{op=put,key=summary,value=llmresponse-223263}\n"
        "GOV CallMachine pass\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f AQAAAAdMTE1DYWxsAQ==\n"
        "dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f 0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 AgAAAC9MTE1DYWxse21vZGVsPW0xLHByb21wdD1zdW1tYXJpemUgdGhlIGluY2lkZW50fQ==\n"
        "0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 70f639b347a374eb3ee2a12b950ca17cf5c3ff2aec9d4432fd201c0687377742 AQAAAAhNZW1vcnlPcAE=\n"
        "70f639b347a374eb3ee2a12b950ca17cf5c3ff2aec9d4432fd201c0687377742 dccd4b67ed544a59ab88763036ec710750023107d260793f705b3436564cab32 AgAAADVNZW1vcnlPcHtvcD1wdXQsa2V5PXN1bW1hcnksdmFsdWU9bGxtcmVzcG9uc2UtMjIzMjYzfQ==\n"
        "dccd4b67ed544a59ab88763036ec710750023107d260793f705b3436564cab32 2cebbfd8fad657af14c9d27daf628c69aa6bcdd0a6d4adb38bee83e32c289c30 AQAAAAtDYWxsTWFjaGluZQE=\n",
    ),
    ("llm_pipeline", "permissive", None): (
        0,
        "464\n",
        "",
        "GOV LLMCall pass\n"
        "IO LLMCall{model=m1,prompt=summarize the incident}\n"
        "GOV MemoryOp pass\n"
        "IO MemoryOp{op=put,key=summary,value=llmresponse-223263}\n"
        "GOV CallMachine pass\n"
        "IO CallMachine{machine=calc,payload=status:449}\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f AQAAAAdMTE1DYWxsAQ==\n"
        "dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f 0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 AgAAAC9MTE1DYWxse21vZGVsPW0xLHByb21wdD1zdW1tYXJpemUgdGhlIGluY2lkZW50fQ==\n"
        "0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 70f639b347a374eb3ee2a12b950ca17cf5c3ff2aec9d4432fd201c0687377742 AQAAAAhNZW1vcnlPcAE=\n"
        "70f639b347a374eb3ee2a12b950ca17cf5c3ff2aec9d4432fd201c0687377742 dccd4b67ed544a59ab88763036ec710750023107d260793f705b3436564cab32 AgAAADVNZW1vcnlPcHtvcD1wdXQsa2V5PXN1bW1hcnksdmFsdWU9bGxtcmVzcG9uc2UtMjIzMjYzfQ==\n"
        "dccd4b67ed544a59ab88763036ec710750023107d260793f705b3436564cab32 2cebbfd8fad657af14c9d27daf628c69aa6bcdd0a6d4adb38bee83e32c289c30 AQAAAAtDYWxsTWFjaGluZQE=\n"
        "2cebbfd8fad657af14c9d27daf628c69aa6bcdd0a6d4adb38bee83e32c289c30 93525c09fc72059aac110a5956ec72c016ca97331b534ab62ec4c80bd4b3b33e AgAAACxDYWxsTWFjaGluZXttYWNoaW5lPWNhbGMscGF5bG9hZD1zdGF0dXM6NDQ5fQ==\n",
    ),
    ("llm_pipeline", "tags:LLMCall", 1): (
        3,
        "",
        "fuel exhausted\n",
        "GOV LLMCall pass\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f AQAAAAdMTE1DYWxsAQ==\n",
    ),
    ("llm_pipeline", "tags:LLMCall", 2): (
        3,
        "",
        "fuel exhausted\n",
        "GOV LLMCall pass\n"
        "IO LLMCall{model=m1,prompt=summarize the incident}\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f AQAAAAdMTE1DYWxsAQ==\n"
        "dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f 0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 AgAAAC9MTE1DYWxse21vZGVsPW0xLHByb21wdD1zdW1tYXJpemUgdGhlIGluY2lkZW50fQ==\n",
    ),
    ("llm_pipeline", "tags:LLMCall", None): (
        2,
        "",
        "denied\n",
        "GOV LLMCall pass\n"
        "IO LLMCall{model=m1,prompt=summarize the incident}\n"
        "GOV MemoryOp fail\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f AQAAAAdMTE1DYWxsAQ==\n"
        "dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f 0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 AgAAAC9MTE1DYWxse21vZGVsPW0xLHByb21wdD1zdW1tYXJpemUgdGhlIGluY2lkZW50fQ==\n"
        "0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 1deb382eaa17487f1434bbe11e53a66614be8c4ac2a167c98f6a18c87805cfc8 AQAAAAhNZW1vcnlPcAA=\n",
    ),
    ("pure", "denying", None): (
        0,
        "42\n",
        "",
        "",
        "GOVLEDGER v1 sha256\n",
    ),
    ("pure", "permissive", None): (
        0,
        "42\n",
        "",
        "",
        "GOVLEDGER v1 sha256\n",
    ),
    ("pure", "tags:LLMCall", None): (
        0,
        "42\n",
        "",
        "",
        "GOVLEDGER v1 sha256\n",
    ),
}

# (program, fuel) under PERMISSIVE with each reply behind two Taus:
#   (completed, value, denied, trace text, ledger text)
PINNED_TAU_RUNS = {
    ("counter_machine", 2): (
        False,
        None,
        False,
        "GOV Observability pass\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 f65021f71011c0b3b03f0dab2c67f743fb43d87f12f3b2f660b5b6bbe3152c58 AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n",
    ),
    ("counter_machine", 3): (
        False,
        None,
        False,
        "GOV Observability pass\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 f65021f71011c0b3b03f0dab2c67f743fb43d87f12f3b2f660b5b6bbe3152c58 AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n",
    ),
    ("counter_machine", 7): (
        False,
        None,
        False,
        "GOV Observability pass\n"
        "IO Observability{message=pc\\=0;regs\\=1\\,0}\n"
        "GOV Observability pass\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 f65021f71011c0b3b03f0dab2c67f743fb43d87f12f3b2f660b5b6bbe3152c58 AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n"
        "f65021f71011c0b3b03f0dab2c67f743fb43d87f12f3b2f660b5b6bbe3152c58 9235e73fe63f506bcbc5b3363f97cdebc714aba8560f4555821131dea9328e88 AgAAACdPYnNlcnZhYmlsaXR5e21lc3NhZ2U9cGNcPTA7cmVnc1w9MVwsMH0=\n"
        "9235e73fe63f506bcbc5b3363f97cdebc714aba8560f4555821131dea9328e88 329b47b1837c325ec7274c61cac0765e1c0766d3ffb18192ef6e15977d5d7a96 AQAAAA1PYnNlcnZhYmlsaXR5AQ==\n",
    ),
    ("llm_pipeline", 11): (
        False,
        None,
        False,
        "GOV LLMCall pass\n"
        "IO LLMCall{model=m1,prompt=summarize the incident}\n"
        "GOV MemoryOp pass\n"
        "IO MemoryOp{op=put,key=summary,value=llmresponse-223263}\n"
        "GOV CallMachine pass\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f AQAAAAdMTE1DYWxsAQ==\n"
        "dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f 0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 AgAAAC9MTE1DYWxse21vZGVsPW0xLHByb21wdD1zdW1tYXJpemUgdGhlIGluY2lkZW50fQ==\n"
        "0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 70f639b347a374eb3ee2a12b950ca17cf5c3ff2aec9d4432fd201c0687377742 AQAAAAhNZW1vcnlPcAE=\n"
        "70f639b347a374eb3ee2a12b950ca17cf5c3ff2aec9d4432fd201c0687377742 dccd4b67ed544a59ab88763036ec710750023107d260793f705b3436564cab32 AgAAADVNZW1vcnlPcHtvcD1wdXQsa2V5PXN1bW1hcnksdmFsdWU9bGxtcmVzcG9uc2UtMjIzMjYzfQ==\n"
        "dccd4b67ed544a59ab88763036ec710750023107d260793f705b3436564cab32 2cebbfd8fad657af14c9d27daf628c69aa6bcdd0a6d4adb38bee83e32c289c30 AQAAAAtDYWxsTWFjaGluZQE=\n",
    ),
    ("llm_pipeline", 12): (
        True,
        464,
        False,
        "GOV LLMCall pass\n"
        "IO LLMCall{model=m1,prompt=summarize the incident}\n"
        "GOV MemoryOp pass\n"
        "IO MemoryOp{op=put,key=summary,value=llmresponse-223263}\n"
        "GOV CallMachine pass\n"
        "IO CallMachine{machine=calc,payload=status:449}\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f AQAAAAdMTE1DYWxsAQ==\n"
        "dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f 0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 AgAAAC9MTE1DYWxse21vZGVsPW0xLHByb21wdD1zdW1tYXJpemUgdGhlIGluY2lkZW50fQ==\n"
        "0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 70f639b347a374eb3ee2a12b950ca17cf5c3ff2aec9d4432fd201c0687377742 AQAAAAhNZW1vcnlPcAE=\n"
        "70f639b347a374eb3ee2a12b950ca17cf5c3ff2aec9d4432fd201c0687377742 dccd4b67ed544a59ab88763036ec710750023107d260793f705b3436564cab32 AgAAADVNZW1vcnlPcHtvcD1wdXQsa2V5PXN1bW1hcnksdmFsdWU9bGxtcmVzcG9uc2UtMjIzMjYzfQ==\n"
        "dccd4b67ed544a59ab88763036ec710750023107d260793f705b3436564cab32 2cebbfd8fad657af14c9d27daf628c69aa6bcdd0a6d4adb38bee83e32c289c30 AQAAAAtDYWxsTWFjaGluZQE=\n"
        "2cebbfd8fad657af14c9d27daf628c69aa6bcdd0a6d4adb38bee83e32c289c30 93525c09fc72059aac110a5956ec72c016ca97331b534ab62ec4c80bd4b3b33e AgAAACxDYWxsTWFjaGluZXttYWNoaW5lPWNhbGMscGF5bG9hZD1zdGF0dXM6NDQ5fQ==\n",
    ),
    ("llm_pipeline", 2): (
        False,
        None,
        False,
        "GOV LLMCall pass\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f AQAAAAdMTE1DYWxsAQ==\n",
    ),
    ("llm_pipeline", 3): (
        False,
        None,
        False,
        "GOV LLMCall pass\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f AQAAAAdMTE1DYWxsAQ==\n",
    ),
    ("llm_pipeline", 4): (
        False,
        None,
        False,
        "GOV LLMCall pass\n"
        "IO LLMCall{model=m1,prompt=summarize the incident}\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f AQAAAAdMTE1DYWxsAQ==\n"
        "dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f 0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 AgAAAC9MTE1DYWxse21vZGVsPW0xLHByb21wdD1zdW1tYXJpemUgdGhlIGluY2lkZW50fQ==\n",
    ),
    ("llm_pipeline", 6): (
        False,
        None,
        False,
        "GOV LLMCall pass\n"
        "IO LLMCall{model=m1,prompt=summarize the incident}\n"
        "GOV MemoryOp pass\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f AQAAAAdMTE1DYWxsAQ==\n"
        "dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f 0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 AgAAAC9MTE1DYWxse21vZGVsPW0xLHByb21wdD1zdW1tYXJpemUgdGhlIGluY2lkZW50fQ==\n"
        "0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 70f639b347a374eb3ee2a12b950ca17cf5c3ff2aec9d4432fd201c0687377742 AQAAAAhNZW1vcnlPcAE=\n",
    ),
    ("llm_pipeline", 7): (
        False,
        None,
        False,
        "GOV LLMCall pass\n"
        "IO LLMCall{model=m1,prompt=summarize the incident}\n"
        "GOV MemoryOp pass\n",
        "GOVLEDGER v1 sha256\n"
        "0000000000000000000000000000000000000000000000000000000000000000 dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f AQAAAAdMTE1DYWxsAQ==\n"
        "dd9f65479b55bacbb1b9bdb9c3a78ef769f5f7bb97f3c8465918049bce8f695f 0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 AgAAAC9MTE1DYWxse21vZGVsPW0xLHByb21wdD1zdW1tYXJpemUgdGhlIGluY2lkZW50fQ==\n"
        "0bb784f2557d52141d820b9b74e912446445063244f937ca3cdcfc25b765c6b7 70f639b347a374eb3ee2a12b950ca17cf5c3ff2aec9d4432fd201c0687377742 AQAAAAhNZW1vcnlPcAE=\n",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_RUNS, key=repr), ids=repr)
def test_run_is_pinned(tmp_path, capsys, case):
    program, policy, fuel = case
    trace_file, ledger_file = tmp_path / "trace", tmp_path / "ledger"
    argv = ["run", str(PROGRAMS / f"{program}.json"), "--policy", policy,
            "--trace-out", str(trace_file), "--ledger-out", str(ledger_file)]
    if fuel is not None:
        argv += ["--fuel", str(fuel)]
    code = main(argv)
    out, err = capsys.readouterr()
    files = (trace_file.read_bytes().decode("utf-8"), ledger_file.read_bytes().decode("utf-8"))
    assert (code, out, err, *files) == PINNED_RUNS[case]


@pytest.mark.parametrize("case", sorted(PINNED_TAU_RUNS, key=repr), ids=repr)
def test_run_with_taus_in_every_reply_is_pinned(case):
    program_name, fuel = case
    program = parse_program((PROGRAMS / f"{program_name}.json").read_text(encoding="utf-8"))
    answer = mock_handler(0)
    gh = govern(lambda d: tau(tau(answer(d))))
    out = interpret_governed(gh, PERMISSIVE, program.compile()(program.input_value), fuel)
    assert (
        out.completed, out.value, out.denied,
        format_trace(out.trace), format_ledger(trace_to_ledger(out.trace)),
    ) == PINNED_TAU_RUNS[case]
