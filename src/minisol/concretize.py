"""From solver model to executable transactions, and the JSON artifact.

Every numeric JSON field that can exceed 2^53 is serialized as a decimal
string so the artifact survives any JSON parser.  The per-transaction
block timestamp is kept on the in-memory objects for replay verification
but is not part of the wire schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import EncodeError, ReplayError
from .lang import ACCOUNTS


@dataclass
class Transaction:
    function: str                  # '<constructor>' for the deployment
    caller: str                    # 'A0'..'A7'
    args: list
    value: int = 0
    gas: int = 0
    timestamp: int = 0             # model value; not serialized

    @property
    def caller_index(self):
        if self.caller not in ACCOUNTS:
            raise ReplayError("unknown account %r" % self.caller)
        return int(self.caller[1:])


@dataclass
class TransactionSequence:
    transactions: list
    target_line: int = 0
    safety_text: Optional[str] = None
    heuristic: str = ""
    walks_explored: int = 0
    time_ms: int = 0

    def __iter__(self):
        return iter(self.transactions)

    def __len__(self):
        return len(self.transactions)


def concretize(model, script, *, target_line=0, safety_text=None,
               heuristic="", walks_explored=0,
               time_ms=0) -> TransactionSequence:
    """One Transaction per transaction segment of a numbered walk (an
    ``encoder.SsaScript``), in execution order; arguments come from each
    parameter's input symbol."""
    txs = []
    for env in script.transactions:
        if env.partial:
            raise EncodeError("cannot concretize a partial walk")
        try:
            args = [model[sym] for _name, sym in env.params]
            tx = Transaction(
                function=env.fn,
                caller="A%d" % model[env.sender],
                args=args,
                value=model[env.value],
                gas=model[env.gas],
                timestamp=model[env.timestamp])
        except KeyError as exc:
            raise EncodeError("model misses required symbol %s" % exc) from exc
        txs.append(tx)
    return TransactionSequence(txs, target_line=target_line,
                               safety_text=safety_text, heuristic=heuristic,
                               walks_explored=walks_explored, time_ms=time_ms)


def to_obj(seq: TransactionSequence) -> dict:
    """The JSON object of `seq`: its target, heuristic, walk count, time and
    transactions, each transaction's numbers as decimal strings."""
    return {
        "target": {"line": seq.target_line, "safety": seq.safety_text},
        "heuristic": seq.heuristic,
        "walks_explored": seq.walks_explored,
        "time_ms": seq.time_ms,
        "transactions": [
            {
                "function": tx.function,
                "caller": tx.caller,
                "args": [str(a) for a in tx.args],
                "value": str(tx.value),
                "gas": str(tx.gas),
            }
            for tx in seq.transactions
        ],
    }


def to_json(seq: TransactionSequence) -> str:
    """`seq` as the JSON text the CLI writes: ``to_obj`` indented by two."""
    return json.dumps(to_obj(seq), indent=2) + "\n"


def from_json(text: str) -> TransactionSequence:
    try:
        obj = json.loads(text)
        txs = [Transaction(t["function"], t["caller"],
                           [int(a) for a in t["args"]],
                           int(t["value"]), int(t["gas"]))
               for t in obj["transactions"]]
        return TransactionSequence(
            txs,
            target_line=obj["target"]["line"],
            safety_text=obj["target"]["safety"],
            heuristic=obj["heuristic"],
            walks_explored=obj["walks_explored"],
            time_ms=obj["time_ms"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ReplayError("malformed transaction sequence JSON: %s"
                          % exc) from exc
