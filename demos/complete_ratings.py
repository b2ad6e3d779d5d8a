"""Walk through rating completion on a tiny 4x4 matrix.

Four users rated four items on a 1-5 scale; five cells are missing.  The
script fills the gaps with user means, factorizes, keeps just enough rank
to cover 95% of the spectrum energy, and then predicts one of the missing
cells from the similarity of its item to the others.
"""

import numpy as np

from latentrec import linalg, parse_csv, to_dense, impute
from latentrec.svdcf import SvdCfModel, predict_with_info, round_to_scale

CSV = """user,item,rating
1,1,1
1,2,3
1,4,4
2,1,5
2,3,5
2,4,4
3,1,4
3,3,1
3,4,1
4,3,4
4,4,5
"""


def main():
    ds = parse_csv(CSV)
    dense, mask = to_dense(ds)
    print("ratings (0 marks a missing cell):")
    print(dense)

    # --- fill the gaps so the factorization has a complete matrix
    filled = impute(dense, mask, "user")
    observed = mask == 1
    print(f"\nglobal mean of the observed cells: {dense[observed].mean():.4f}")
    print("user-mean filled matrix:")
    print(np.round(filled, 2))

    # --- factorize and choose the rank from the spectrum
    res = linalg.svd(filled)
    print("\nsingular values:", np.round(res.s, 2))
    f = linalg.rank_by_energy(res.s, 0.95)
    energy = float(np.sum(res.s[:f] ** 2) / np.sum(res.s ** 2))
    print(f"rank for 95% energy: f = {f} (retains {100 * energy:.2f}%)")

    u_f, s_f, v_f = linalg.truncate(res, f)
    r_star = u_f @ s_f @ v_f.T
    print("\nrank-2 reconstruction:")
    print(np.round(r_star, 2))

    # --- predict the missing cell in row 3, column 2 (0-based: 2, 1)
    model = SvdCfModel(r_star=r_star, mask=mask, f=f)
    info = predict_with_info(model, 2, 1)
    print(f"\nprediction for user 3, item 2: {info.value:.4f}")
    print(f"similarity mass behind it:      {info.similarity_total:.4f}")
    print(f"rounded to the rating scale:    {round_to_scale(info.value, ds.scale)}")

    # --- the same model can rank a user's unrated items
    print("\ntop pick for each user:")
    for u in range(dense.shape[0]):
        ranked = model.recommend(u, k=1)
        if ranked:
            i, score = ranked[0]
            print(f"  user {u + 1}: item {i + 1} at {score:.2f}")
        else:
            print(f"  user {u + 1}: nothing left to recommend")


if __name__ == "__main__":
    main()
