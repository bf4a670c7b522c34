"""The three transformation families, rendered as ASCII art.

Every family is an ordered tuple of label-preserving image maps that
starts with the identity and designates two "vertex" members assumed to
sit farthest apart.  This script draws one synthetic digit under a few
members of each family and checks the bookkeeping the rest of the
package relies on: outputs stay in [0, 1] and names round-trip.
"""

import numpy as np

from arlab.datasets import gen_minidigits
from arlab.transforms import (apply_batch, family_by_name, family_contrast,
                              family_rotation, family_texture)

SHADES = " .:-=+*#%@"


def render(image) -> str:
    rows = []
    for row in image:
        idx = np.clip((row * (len(SHADES) - 1)).round().astype(int),
                      0, len(SHADES) - 1)
        rows.append("".join(SHADES[i] for i in idx))
    return "\n".join(rows)


digit = gen_minidigits(8, seed=3).images[4]
size = digit.shape[0]

for family in (family_texture(size), family_rotation(), family_contrast()):
    print(f"== family {family.family_name!r}: {len(family)} members, "
          f"vertex {family.vertex}")
    shown = [family.members[0], family.members[family.vertex]]
    for member in shown:
        out = apply_batch(member, digit[None])[0]
        assert out.min() >= 0.0 and out.max() <= 1.0
        print(f"-- {member.name()}")
        print(render(out))
    print()

# names are stable identifiers: the registry resolves them back
fam = family_by_name("rotation")
print("rotation members: ", ", ".join(t.name() for t in fam))
