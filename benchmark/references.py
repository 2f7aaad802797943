"""Published displacements the benchmark checks against (7 significant digits)."""

SEVEN_DIGITS = 5e-7  # relative half-unit of the 7th significant digit

# 31-span ladder graded (5000, 35000, "E") by floor; (node A x, A y, node B x, B y)
# keyed by floor count: 64, 128 and 192 floors hold 2048, 4096 and 6144 free nodes
TRUSS_NODES_AB = {
    64: (2.327843e1, 3.694581e0, 2.117298e1, -6.198756e0),
    128: (2.485152e2, 3.272211e1, 2.462131e2, -4.393270e1),
    192: (1.167079e3, 1.161943e2, 1.164704e3, -1.418954e2),
}

# 50 x 20 frame graded (4000, 36000, "E"); node B (x, y, rotation), any beam subdivision
FRAME_NODE_B = (3.444080e0, -3.476257e-2, -1.044827e-4)

# yielded bars at the end of the 30 x 150 bilinear ladder run at sigma_y = 45
FULL_SCALE_YIELDED = 1691
