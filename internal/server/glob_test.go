package server

import "testing"

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pattern, key string
		want         bool
	}{
		{"*", "", true},
		{"*", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"abc", "ab", false},
		{"a*", "a", true},
		{"a*", "abc", true},
		{"a*", "ba", false},
		{"*c", "abc", true},
		{"a*c", "abc", true},
		{"a*c", "ac", true},
		{"a*c", "abd", false},
		{"a**c", "abc", true},
		{"user:*", "user:42", true},
		{"user:*", "session:42", false},
		{"?", "a", true},
		{"?", "", false},
		{"?", "ab", false},
		{"a?c", "abc", true},
		{"a?c", "ac", false},
		{"h?llo", "hello", true},
		{"h?llo", "hallo", true},
		{"h*llo*", "hillllo!", true},
		{"h*llo", "hillllx", false},
		{"[abc]", "b", true},
		{"[abc]", "d", false},
		{"[a-c]", "b", true},
		{"[a-c]", "d", false},
		{"[c-a]", "b", true}, // reversed range still matches (Redis swaps)
		{"[a-]", "a", true},  // '-' before ']' is still a range: ']'..'a' after swap
		{"[a-]", "]", true},
		{"[a-]", "^", true},  // between ']' (0x5D) and 'a' (0x61)
		{"[a-]", "-", false}, // not a literal '-' (Redis parses the range)
		{"[a-]", "b", false},
		{"[-a]", "-", true}, // leading '-' is a literal (no range start before it)
		{"[-a]", "a", true},
		{"[-a]", "b", false},
		{"[^abc]", "d", true},
		{"[^abc]", "a", false},
		{"h[ae]llo", "hello", true},
		{"h[ae]llo", "hillo", false},
		{"[]", "x", false},  // empty class matches nothing
		{"[abc", "b", true}, // unterminated class: rest of pattern is the class
		{"[abc", "d", false},
		{"[\\]]", "]", true}, // escaped ] inside class
		{"\\*", "*", true},   // escaped star is literal
		{"\\*", "x", false},
		{"\\?", "?", true},
		{"a\\", "a\\", true}, // trailing backslash matches itself
		{"key:[0-9]*", "key:7abc", true},
		{"key:[0-9]*", "key:abc", false},
		{"*:*", "a:b", true},
		{"*:*", "ab", false},
	}
	for _, tc := range cases {
		if got := globMatch([]byte(tc.pattern), []byte(tc.key)); got != tc.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", tc.pattern, tc.key, got, tc.want)
		}
	}
}
