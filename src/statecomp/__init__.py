"""State complexity of reversal-catenation and star-catenation.

Library for building, combining, minimizing, and counting deterministic
finite automata, with closed-form worst-case sizes for L(A)^R L(B) and
L(A)* L(B), machine-checked witnesses, and exhaustive small-case search.
"""

from .automata import (
    AlphabetMismatch,
    Dfa,
    Nfa,
    accepts,
    determinize,
    distinguishing_word,
    enumerate_accepted,
    equivalent,
    minimal_size,
    minimize_brzozowski,
    minimize_hopcroft,
    nfa_accepts,
    nfa_from_dfa,
    reverse_nfa,
)
from .bounds import (
    sc_revcat,
    sc_starcat,
    sc_starcat_special,
    ub_revcat,
    ub_starcat_general,
)
from .constructions import (
    ShapeError,
    revcat_n1_direct,
    star_nfa,
    starcat_general_direct,
)
from .harness import (
    BoundReport,
    BudgetError,
    SearchResult,
    combined,
    decode_dfa,
    dfa_count,
    exhaustive_search,
    oracle_pipeline,
    oracle_sc,
    random_check,
    random_dfa,
    verify_construction,
    verify_witness,
)
from .serialize import DocumentError, document_dict, emit_document, emit_dot, parse_document
from .witnesses import (
    FAMILIES,
    empty_dfa,
    revcat_n1_witness,
    revcat_witness_M,
    revcat_witness_N,
    sigma_star_dfa,
    starcat_special_witness_A,
    starcat_special_witness_B,
    starcat_witness_A,
    starcat_witness_B,
)

__version__ = "0.1.0"
