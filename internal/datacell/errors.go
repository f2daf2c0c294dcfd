package datacell

import "errors"

// Sentinel errors of the engine API. Engine methods wrap them with detail
// (names, positions) via fmt.Errorf("%w: ..."), so callers branch with
// errors.Is and never parse message strings. Parse failures additionally
// carry a position and are asserted with errors.As against *sql.ParseError.
var (
	// ErrUnknownStream is returned when a statement or Ingest references a
	// stream that was never created.
	ErrUnknownStream = errors.New("datacell: unknown stream")
	// ErrUnknownQuery is returned when a name does not resolve to a
	// registered continuous query.
	ErrUnknownQuery = errors.New("datacell: unknown continuous query")
	// ErrDuplicateQuery is returned when a continuous query name is
	// already taken.
	ErrDuplicateQuery = errors.New("datacell: continuous query already exists")
	// ErrDuplicateName is returned when a CREATE collides with an existing
	// table, stream, or basket.
	ErrDuplicateName = errors.New("datacell: name already exists")
	// ErrEngineStopped is returned by every entry point after Stop.
	ErrEngineStopped = errors.New("datacell: engine stopped")
	// ErrNotContinuous is returned when continuous-query registration is
	// attempted on a query without a basket expression.
	ErrNotContinuous = errors.New("datacell: query has no basket expression")
	// ErrContinuousViaExec is returned when a continuous SELECT is passed
	// to Exec directly instead of through CREATE CONTINUOUS QUERY.
	ErrContinuousViaExec = errors.New("datacell: continuous query; use CREATE CONTINUOUS QUERY name AS ...")
	// ErrStreamInUse is returned when DROP targets something a standing
	// query or cascade still reads: a stream, a table a query joins, or a
	// query whose <name>_out another query reads.
	ErrStreamInUse = errors.New("datacell: read by a continuous query or cascade")
	// ErrSubscriptionClosed is returned by Recv after the subscription was
	// closed (explicitly, or because its query was dropped).
	ErrSubscriptionClosed = errors.New("datacell: subscription closed")
	// ErrInvalidOption is returned for an unknown or malformed WITH option
	// in CREATE CONTINUOUS QUERY (and the option helpers).
	ErrInvalidOption = errors.New("datacell: invalid query option")
	// ErrSelfJoin is returned when a continuous query joins a stream with
	// itself (two basket expressions over one stream); alias two distinct
	// streams instead.
	ErrSelfJoin = errors.New("datacell: stream joined with itself")
	// ErrUnsupportedJoin is returned when a stream-stream continuous query
	// has a join shape the streaming executor cannot run incrementally
	// (no equi-join conjunct, more than one join, or a WINDOW clause).
	ErrUnsupportedJoin = errors.New("datacell: unsupported streaming join")
)
