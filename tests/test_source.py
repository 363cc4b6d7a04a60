import tokenize
from pathlib import Path

import pytest

import hyperspec

# With bytecode writing off, every run compiles src/ at import, and CPython
# needs about 230 KiB more memory to compile a module past roughly 4096
# parser tokens, which reads as a resident-memory regression of every
# command.  Every module stays below that step.
MAX_TOKENS = 4000
SOURCES = sorted(Path(hyperspec.__file__).parent.glob("*.py"))


def parser_tokens(path):
    """Tokens the compiler reads: the tokenizer's output without comments and
    non-logical newlines."""
    with open(path, encoding="utf-8") as source:
        tokens = tokenize.generate_tokens(source.readline)
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_stays_below_the_compile_memory_step(path):
    assert parser_tokens(path) < MAX_TOKENS
