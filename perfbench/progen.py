"""Random MiniSol programs with one ``// @target`` line, for the small-mix
workload.

This is the benchmark's own copy of the grammar in ``tests/genprog.py``,
so the workload does not change when the test generator does.  It differs
in three ways:

* variables are 8- or 16-bit scalars: no 256-bit scalars, no mappings;
* expressions add and subtract but never multiply or divide;
* programs have at most 10 statements, not 30;
* it records which lines hold statements, so the target line is drawn
  without parsing the program.

The first three keep every query in milliseconds and the cost of a run
nearly independent of the seed.  Multiplier and divider circuits and
256-bit arithmetic (mapping keys included) bit-blast to CNFs of up to a
million clauses, on which one check takes the bundled CDCL 1-70 s.  About
one program in a hundred of the full grammar drew such a check, so one
query could outlast a whole run, and the seeds that drew one set the
median.  Mappings are measured by mapping-token and the corpus contracts.
"""

import random

WIDTH_NAMES = {8: "uint8", 16: "uint16"}
CORNERS = {8: [0, 1, 2, 3, 5, 127, 254, 255],
           16: [0, 1, 2, 7, 255, 256, 65534, 65535]}
MAX_STATEMENTS = 10

# Prefix of every line that starts a statement; removed before output.
_STMT = "\0"


class SourceGen:
    """Emits random well-formed MiniSol source text."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.statements = 0

    def literal(self, width):
        return str(self.rng.choice(CORNERS[width]))

    def generate(self):
        """Returns (source text, 1-based line numbers of statements)."""
        rng = self.rng
        self.state = {}
        lines = ["contract Rnd%d {" % rng.randrange(1000)]
        for i in range(rng.randint(1, 3)):
            width = rng.choice([8, 16])
            name = "g%d" % i
            self.state[name] = width
            lines.append("    %s %s = %s;"
                         % (WIDTH_NAMES[width], name, self.literal(width)))
        for f in range(rng.randint(1, 3)):
            params = []
            for p in range(rng.randint(0, 2)):
                width = rng.choice([8, 16])
                params.append(("p%d" % p, width))
            self.locals = dict(params)
            self.protected = set()
            head = ", ".join("%s %s" % (WIDTH_NAMES[w], n) for n, w in params)
            lines.append("    function f%d(%s) public {" % (f, head))
            body = self.gen_body(depth=0, indent=2)
            lines.extend(body if body else [_STMT + "        g0 += 1;"])
            lines.append("    }")
        lines.append("}")
        stmt_lines = [i + 1 for i, text in enumerate(lines)
                      if text.startswith(_STMT)]
        text = "\n".join(line.lstrip(_STMT) for line in lines) + "\n"
        return text, stmt_lines

    def gen_body(self, depth, indent):
        rng = self.rng
        out = []
        for _ in range(rng.randint(1, 4 if depth else 6)):
            if self.statements >= MAX_STATEMENTS:
                break
            out.extend(self.gen_stmt(depth, indent))
        return out

    def scalars_in_scope(self):
        return list(self.state.items()) + list(self.locals.items())

    def expr(self, width, depth=0):
        rng = self.rng
        choices = ["lit", "var"]
        if depth < 2:
            choices += ["add", "sub"]
        kind = rng.choice(choices)
        same = [n for n, w in self.scalars_in_scope() if w == width]
        if kind == "var" and not same:
            kind = "lit"
        if kind == "lit":
            return self.literal(width)
        if kind == "var":
            return rng.choice(same)
        op = {"add": "+", "sub": "-"}[kind]
        return "(%s %s %s)" % (self.expr(width, depth + 1), op,
                               self.expr(width, depth + 1))

    def cond(self):
        rng = self.rng
        width = rng.choice([8, 16])
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return "%s %s %s" % (self.expr(width, 1), op, self.expr(width, 1))

    def gen_stmt(self, depth, indent):
        rng = self.rng
        pad = _STMT + "    " * indent
        self.statements += 1
        kind = rng.choice(["assign", "assign", "compound", "decl", "if",
                           "while" if depth == 0 else "assign", "assign"])
        if kind == "decl":
            width = rng.choice([8, 16])
            name = "l%d" % self.statements
            init = self.expr(width)       # before the name is in scope
            self.locals[name] = width
            return ["%s%s %s = %s;" % (pad, WIDTH_NAMES[width], name, init)]
        if kind in ("assign", "compound"):
            targets = [(n, w) for n, w in self.scalars_in_scope()
                       if n not in self.protected]
            name, width = rng.choice(targets)
            op = "=" if kind == "assign" else rng.choice(["+=", "-="])
            return ["%s%s %s %s;" % (pad, name, op, self.expr(width))]
        plain = pad.lstrip(_STMT)
        if kind == "if":
            out = ["%sif (%s) {" % (pad, self.cond())]
            saved = dict(self.locals)
            out.extend(self.gen_body(depth + 1, indent + 1))
            self.locals = dict(saved)
            if rng.random() < 0.4:
                out.append("%s} else {" % plain)
                out.extend(self.gen_body(depth + 1, indent + 1))
                self.locals = dict(saved)
            out.append("%s}" % plain)
            return out
        # bounded while: the counter is fresh and never otherwise written
        name = "w%d" % self.statements
        self.locals[name] = 16
        self.protected.add(name)
        bound = rng.randint(1, 3)
        out = ["%suint16 %s = 0;" % (pad, name),
               "%swhile (%s < %d) {" % (pad, name, bound)]
        saved = dict(self.locals)
        out.extend(self.gen_body(depth + 1, indent + 1))
        self.locals = dict(saved)
        out.append("%s    %s += 1;" % (pad, name))
        out.append("%s}" % plain)
        return out


def annotated_program(seed, index):
    """Program `index` of workload seed `seed`, with ``// @target`` on one
    of its statement lines (also drawn from the seed)."""
    rng = random.Random("small-mix:%d:%d" % (seed, index))
    source, stmt_lines = SourceGen(rng).generate()
    line = rng.choice(stmt_lines)
    lines = source.splitlines()
    lines[line - 1] += "  // @target"
    return "\n".join(lines) + "\n", line
