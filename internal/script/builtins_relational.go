package script

import (
	"fmt"

	"infera/internal/dataframe"
)

// Relational helpers used by generated analysis code for the "galaxies of
// the two largest halos" style questions.

func registerRelational(r Registry) {
	r["semi_join"] = biSemiJoin
	r["top_per_group"] = biTopPerGroup
	r["groupby_multi"] = biGroupByMulti
}

// biSemiJoin keeps the rows of the first frame whose key appears in the
// second frame: semi_join(df, keys_df, on).
func biSemiJoin(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("semi_join", args, 3); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("semi_join", args, 0)
	if err != nil {
		return Value{}, err
	}
	keys, err := wantFrame("semi_join", args, 1)
	if err != nil {
		return Value{}, err
	}
	on, err := wantStr("semi_join", args, 2)
	if err != nil {
		return Value{}, err
	}
	fc, err := f.Column(on)
	if err != nil {
		return Value{}, err
	}
	kc, err := keys.Column(on)
	if err != nil {
		return Value{}, err
	}
	// Keys of two kinds match by their text (dataframe.KeyIndex): Int 3,
	// Float 3 and String "3" are one key.
	var present dataframe.KeyIndex
	present.Add(nil, []*dataframe.Column{kc}, nil)
	found := present.Find(nil, []*dataframe.Column{fc}, nil)
	out := f.Filter(func(i int) bool { return found[i] >= 0 })
	return FrameValue(out), nil
}

// biTopPerGroup keeps the top n rows per group value ordered by a column
// descending: top_per_group(df, group, by, n).
func biTopPerGroup(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("top_per_group", args, 4); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("top_per_group", args, 0)
	if err != nil {
		return Value{}, err
	}
	s, err := wantStrs("top_per_group", args, 1, 3)
	if err != nil {
		return Value{}, err
	}
	group, by := s[0], s[1]
	n, err := wantNum("top_per_group", args, 3)
	if err != nil {
		return Value{}, err
	}
	sorted, err := f.SortBy(dataframe.SortKey{Col: by, Desc: true})
	if err != nil {
		return Value{}, err
	}
	gc, err := sorted.Column(group)
	if err != nil {
		return Value{}, err
	}
	ids, first := dataframe.Group(sorted.NumRows(), gc)
	taken := make([]int, len(first))
	out := sorted.Filter(func(i int) bool {
		if taken[ids[i]] >= int(n) {
			return false
		}
		taken[ids[i]]++
		return true
	})
	return FrameValue(out), nil
}

// biGroupByMulti applies several aggregations in one pass:
// groupby_multi(df, keys, cols, ops, names).
func biGroupByMulti(_ *Env, args []Value) (Value, error) {
	if err := wantArgs("groupby_multi", args, 5); err != nil {
		return Value{}, err
	}
	f, err := wantFrame("groupby_multi", args, 0)
	if err != nil {
		return Value{}, err
	}
	keys, err := wantStrList("groupby_multi", args, 1)
	if err != nil {
		return Value{}, err
	}
	cols, err := wantStrList("groupby_multi", args, 2)
	if err != nil {
		return Value{}, err
	}
	ops, err := wantStrList("groupby_multi", args, 3)
	if err != nil {
		return Value{}, err
	}
	names, err := wantStrList("groupby_multi", args, 4)
	if err != nil {
		return Value{}, err
	}
	if len(cols) != len(ops) || len(cols) != len(names) {
		return Value{}, fmt.Errorf("ValueError: groupby_multi cols/ops/names lengths differ (%d/%d/%d)", len(cols), len(ops), len(names))
	}
	return groupBy(f, keys, cols, ops, names)
}
