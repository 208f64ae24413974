"""Execution outcomes.

Concrete execution produces ok/err/miss; the symbolic engine adds abort
(e.g. a chosen specification that is not applicable).
"""

from enum import Enum


class Outcome(Enum):
    OK = "ok"
    ERR = "err"
    MISS = "miss"
    ABORT = "abort"

    def __repr__(self):
        return self.value


OK = Outcome.OK
ERR = Outcome.ERR
MISS = Outcome.MISS
ABORT = Outcome.ABORT
