"""Structured pass/fail report trees, rendered as text or JSON.

Each node is one named check; failures carry the first offending witness
(a basis tuple, rendered as a string) and optionally an exact value string.
Ordering is the insertion order, so reports are byte-identical across runs
with identical inputs.
"""

from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    ok: bool = True
    value: str = None
    witness: str = None
    children: list = field(default_factory=list)

    @property
    def passed(self):
        return self.ok and all(c.passed for c in self.children)

    def add(self, child):
        self.children.append(child)
        return child

    def check(self, name, ok, witness=None, value=None):
        return self.add(Check(name, bool(ok), value=value, witness=witness))

    def all_failures(self):
        out = []
        if not self.ok and not self.children:
            out.append(self)
        for c in self.children:
            out.extend(c.all_failures())
        return out

    def find(self, name):
        if self.name == name:
            return self
        for c in self.children:
            got = c.find(name)
            if got is not None:
                return got
        return None

    def to_json(self):
        node = {"name": self.name, "status": "pass" if self.passed else "fail"}
        if self.value is not None:
            node["value"] = self.value
        if self.witness is not None:
            node["witness"] = self.witness
        if self.children:
            node["children"] = [c.to_json() for c in self.children]
        return node

    def render(self, indent=0):
        mark = "ok  " if self.passed else "FAIL"
        line = f"{'  ' * indent}[{mark}] {self.name}"
        if self.value is not None:
            line += f" = {self.value}"
        if self.witness is not None:
            line += f"  (witness: {self.witness})"
        lines = [line]
        for c in self.children:
            lines.append(c.render(indent + 1))
        return "\n".join(lines)
