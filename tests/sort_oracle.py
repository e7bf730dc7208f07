"""Decoding of the sorts' outputs for the tests."""


def chain_order(pred: tuple[int, ...]) -> list[int]:
    """Decode a predecessor chain back into position order."""
    n = len(pred)
    succ = {}
    head = None
    for node, p in enumerate(pred):
        if p == node:
            head = node
        else:
            succ[p] = node
    if head is None:
        raise ValueError("chain has no head")
    order = [head]
    while len(order) < n:
        order.append(succ[order[-1]])
    return order
